"""Shared infrastructure for the experiment benches.

Every bench reproduces one table or figure of the paper.  All application
runs are routed through one :mod:`repro.serve` session over a result
store — each (app, config, options) cell is a content-addressed request,
so a cell several benches share is simulated once and read back from the
store afterwards, and every batch can fan across worker processes:

* ``REPRO_BENCH_JOBS=N``   fan each batch across N worker processes
  (default 1: serial in-process);
* ``REPRO_BENCH_CACHE=DIR`` keep the store in DIR, so a later bench
  session starts warm (default: a directory that lives as long as the
  pytest run).  Each distinct array is stored once, shared by the plan
  and every result that ends in it: the store is ~45 MB at default
  scale and grows with the problem sizes at paper scale.

Because serve results are proven dataclass-equal to direct in-process
runs (tests/serve/test_differential.py), neither knob can change any
bench's numbers — only how fast they arrive.

Benches phrase their cells with :func:`bench_request` and fetch them with
:func:`run_cells` (one batch of named cells) or :func:`run_matrix` (apps
x named cluster configs, numerics-checked against the uniprocessor
reference); the paper's own matrix is the ``evaluations`` fixture.

Scale: benches default to each app's scaled-down problem size (the full
event-driven simulation in pure Python makes paper sizes minutes-long);
set ``REPRO_PAPER_SCALE=1`` to run the paper's exact sizes.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

import pytest

from repro.report import AppEvaluation, evaluate_app, load_bench_artifact
from repro.runtime.results import RunResult
from repro.serve import RunRequest, ServeSession
from repro.serve.request import SHMEM_OPTIONS
from repro.tempest.config import ClusterConfig

APP_NAMES = ["pde", "shallow", "grav", "lu", "cg", "jacobi"]  # paper order


def bench_scale() -> str:
    return "paper" if os.environ.get("REPRO_PAPER_SCALE") else "default"


def bench_jobs() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1"))


# --------------------------------------------------------------------- #
# the serve session every bench shares
# --------------------------------------------------------------------- #
_SERVE: ServeSession | None = None
_SCRATCH: tempfile.TemporaryDirectory | None = None


def serve_session() -> ServeSession:
    """The process-wide :class:`ServeSession` all benches share.

    Lazy so collecting benches never spins up a pool; one session over
    one store for the whole pytest run, so the store is the cross-bench
    result memo and the plan cache works across benches.
    """
    global _SERVE, _SCRATCH
    if _SERVE is None:
        cache_dir = os.environ.get("REPRO_BENCH_CACHE")
        if not cache_dir:
            _SCRATCH = tempfile.TemporaryDirectory(prefix="repro-bench-")
            cache_dir = _SCRATCH.name
        _SERVE = ServeSession(jobs=bench_jobs(), cache_dir=cache_dir)
    return _SERVE


def pytest_terminal_summary(terminalreporter):
    if _SERVE is not None:
        s = _SERVE.stats()
        terminalreporter.write_line(
            f"serve session: {s['requests']} cells requested, "
            f"{s['cache_hits']} store hits, {s['computed']} computed "
            f"({s['pool']} pooled), {s['plans_built']} plans built"
        )


def pytest_unconfigure(config):
    global _SERVE, _SCRATCH
    if _SERVE is not None:
        _SERVE.close()
        _SERVE = None
    if _SCRATCH is not None:
        _SCRATCH.cleanup()
        _SCRATCH = None


def bench_request(
    app: str | None = None,
    config: ClusterConfig | None = None,
    *,
    program=None,
    backend: str = "shmem",
    scale: str | None = None,
    params=(),
    **options,
) -> RunRequest:
    """One bench cell as a content-addressed request."""
    return RunRequest(
        app=app,
        program=program,
        scale=bench_scale() if scale is None else scale,
        params=params,
        backend=backend,
        config=config or ClusterConfig(n_nodes=8),
        **options,
    )


def run_cells(cells: dict) -> dict:
    """Serve ``{name: request}`` as one batch; returns ``{name: result}``.

    Names are any hashable (``(app, variant)`` tuples for a grid).  The
    batch fans across workers when ``REPRO_BENCH_JOBS`` > 1; a cell any
    bench has requested before comes back from the store.
    """
    served = serve_session().run_batch(cells.values())
    return {name: sr.result for name, sr in zip(cells, served)}


def run_matrix(
    apps: list[str],
    variants: dict[object, ClusterConfig | None],
    n_nodes: int = 8,
    **options,
) -> dict[str, dict[object, RunResult]]:
    """``apps`` x ``{variant: config}`` as one batch -> ``{app: {variant:
    result}}``; a variant is named by any hashable (a label, a block
    size, a drop rate), ``None`` is the plain ``n_nodes`` cluster and
    ``options`` go to every request.

    Each app's uniprocessor reference rides in the same batch, and every
    completed cell's numerics are checked against it (a degraded cell has
    only partial arrays to show).
    """
    plain = ClusterConfig(n_nodes=n_nodes)
    cells = {
        (app, variant): bench_request(app, config or plain, **options)
        for app in apps
        for variant, config in variants.items()
    }
    # the references take the program options only: a shmem run option
    # is refused on any other backend
    program = {k: v for k, v in options.items() if k not in SHMEM_OPTIONS}
    refs = {
        app: bench_request(app, plain, backend="uniproc", **program)
        for app in apps
    }
    results = run_cells({**refs, **cells})
    matrix: dict = {app: {} for app in apps}
    for app, variant in cells:
        result = matrix[app][variant] = results[app, variant]
        if result.completed:
            result.assert_same_numerics(results[app])
    return matrix


def write_artifact(path: str, matrix: dict, n_nodes: int, watch=None) -> None:
    """Write a ``{scale, n_nodes, apps}`` matrix artifact — the shape
    ``python -m repro.report --bench-dir`` reads.

    ``watch=(variant, field, render)`` first prints, per app, how that one
    cell moved against the artifact an earlier run at the same scale left
    behind (an absent or unusable file is skipped).
    """
    previous = load_bench_artifact(path) if watch else None
    if previous is not None and previous.get("scale") == bench_scale():
        variant, field, render = watch
        for app, cells in matrix.items():
            old = previous.get("apps", {}).get(app, {}).get(variant)
            if old and field in old:
                print(
                    f"{app}: {variant} {field} {render(old[field])} -> "
                    f"{render(cells[variant][field])} vs previous artifact"
                )
    with open(path, "w") as fh:
        json.dump(
            {"scale": bench_scale(), "n_nodes": n_nodes, "apps": matrix},
            fh, indent=2, sort_keys=True,
        )
    print(f"\nwrote {path}")


@pytest.fixture(scope="session")
def evaluations() -> dict[str, AppEvaluation]:
    """The paper's matrix (``repro.report.paper_cells``) per app, at the
    bench scale on 8 nodes — what Table 3, Figure 3 and Figure 4 read."""
    return {
        app: evaluate_app(app, bench_scale(), 8, serve_session())
        for app in APP_NAMES
    }


def experiments_table(after: str) -> list[list[str]]:
    """Body rows of the first markdown table following ``after`` in
    EXPERIMENTS.md — the published default-scale numbers a bench pins."""
    doc = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
    rows = []
    for line in doc.read_text().split(after, 1)[1].splitlines():
        if line.startswith("|"):
            rows.append([c.strip() for c in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]  # drop the header and the |---| rule


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Fixed-width table printer for bench output."""
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
