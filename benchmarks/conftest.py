"""Shared infrastructure for the experiment benches.

Every bench reproduces one table or figure of the paper.  All application
runs are routed through :mod:`repro.serve` — each (app, config, options)
cell is a content-addressed request, so several benches sharing the same
cell compute it once, matrices can fan across worker processes, and a
persistent cache directory makes re-runs nearly free:

* ``REPRO_BENCH_JOBS=N``   fan matrix cells across N worker processes
  (default 1: serial in-process, exactly the historical behavior);
* ``REPRO_BENCH_CACHE=DIR`` persistent result/plan cache across bench
  sessions (default: none — in-memory memoization only).

Because serve results are proven dataclass-equal to direct in-process
runs (tests/serve/test_differential.py), neither knob can change any
bench's numbers — only how fast they arrive.

Scale: benches default to each app's scaled-down problem size (the full
event-driven simulation in pure Python makes paper sizes minutes-long);
set ``REPRO_PAPER_SCALE=1`` to run the paper's exact sizes.
"""

from __future__ import annotations

import os

import pytest

from repro.apps import APPS
from repro.runtime.results import RunResult
from repro.serve import RunRequest, ServeSession
from repro.tempest.config import ClusterConfig

APP_NAMES = ["pde", "shallow", "grav", "lu", "cg", "jacobi"]  # paper order


def bench_scale() -> str:
    return "paper" if os.environ.get("REPRO_PAPER_SCALE") else "default"


def bench_jobs() -> int:
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1"))


def bench_cache_dir() -> str | None:
    return os.environ.get("REPRO_BENCH_CACHE") or None


# --------------------------------------------------------------------- #
# the serve session every bench shares
# --------------------------------------------------------------------- #
_SERVE: ServeSession | None = None


def serve_session() -> ServeSession:
    """The process-wide :class:`ServeSession` all benches share.

    Lazy so collecting benches never spins up a pool; one session for the
    whole pytest run so the in-memory plan cache and in-flight dedup work
    across benches.
    """
    global _SERVE
    if _SERVE is None:
        _SERVE = ServeSession(jobs=bench_jobs(), cache_dir=bench_cache_dir())
    return _SERVE


def pytest_sessionfinish(session, exitstatus):
    global _SERVE
    if _SERVE is not None:
        _SERVE.close()
        _SERVE = None


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


def serve_run(
    app: str | None = None,
    config: ClusterConfig | None = None,
    **kwargs,
) -> RunResult:
    """Serve one cell (cache/dedup/pool aware); returns its RunResult."""
    return serve_session().run(bench_request(app, config, **kwargs)).result


def serve_batch(requests: list[RunRequest]) -> list[RunResult]:
    """Serve a matrix of cells; fans across workers when
    ``REPRO_BENCH_JOBS`` > 1, returns results in request order."""
    return [sr.result for sr in serve_session().run_batch(requests)]


class RunCache:
    """Memoized application runs, shared by all benches in a session.

    The dict is the cross-bench *result* memo: the shared
    :class:`ServeSession` memoizes plans and joins identical in-flight
    requests, but it keeps finished results only in a persistent store,
    and the benches run without one unless ``REPRO_BENCH_CACHE`` is set —
    so without this dict a cell two benches share would be simulated
    twice.
    """

    def __init__(self) -> None:
        self._cache: dict = {}
        self._programs: dict = {}

    def program(self, app: str):
        key = (app, bench_scale())
        if key not in self._programs:
            self._programs[key] = APPS[app].program(bench_scale())
        return self._programs[key]

    def run(
        self,
        app: str,
        backend: str = "shmem",
        n_nodes: int = 8,
        dual_cpu: bool = True,
        profile: bool = False,
        **options,
    ):
        """``options`` are RunRequest's shmem options (optimize, bulk, ...),
        forwarded as given; other backends take none."""
        if backend != "shmem":
            options = {}
        elif profile:
            options["profile_phases"] = True
        key = (
            app, bench_scale(), backend, n_nodes, dual_cpu,
            tuple(sorted(options.items())),
        )
        if key not in self._cache:
            cfg = ClusterConfig(n_nodes=n_nodes, dual_cpu=dual_cpu)
            self._cache[key] = serve_run(app, cfg, backend=backend, **options)
        return self._cache[key]


@pytest.fixture(scope="session")
def runs() -> RunCache:
    return RunCache()


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
