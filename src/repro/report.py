"""Full-evaluation report generator.

``python -m repro.report [-o results.md] [--scale paper] [--apps pde,cg]``
runs the complete evaluation matrix (uniprocessor reference, shared memory
single/dual CPU × unoptimized/optimized, message passing) for each
application and renders a markdown report with the paper's Table 3 and
Figures 3-4 alongside the paper's published numbers.

The benchmarks under ``benchmarks/`` assert the claims; this module is for
humans who want the document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from repro.apps import APPS
from repro.obs import BUCKETS, COST_CLASSES, breakdown_totals
from repro.runtime import RunResult
from repro.serve import RunRequest, ServeSession
from repro.spec import OptionError, add_flags, usage
from repro.tempest.config import US, ClusterConfig, CombineConfig
from repro.tempest.faults import FaultConfig

__all__ = [
    "AppEvaluation",
    "BENCH_ARTIFACTS",
    "evaluate_app",
    "load_bench_artifact",
    "main",
    "paper_cells",
    "render_bench_appendix",
    "render_report",
]

#: Matrix artifacts the ablation benches leave behind (see
#: ``benchmarks/bench_ablation_combining.py``, ``..._switch.py``,
#: ``..._partition.py``, ``bench_serve.py``, ...).
BENCH_ARTIFACTS = (
    "BENCH_combining.json",
    "BENCH_switch.json",
    "BENCH_partition.json",
    "BENCH_recovery.json",
    "BENCH_obs.json",
    "BENCH_engine.json",
    "BENCH_serve.json",
)


def paper_cells(
    app: str,
    scale: str = "default",
    n_nodes: int = 8,
    params=(),
    faults: FaultConfig | None = None,
    combine: bool = False,
) -> dict[str, RunRequest]:
    """The paper's evaluation matrix for one application, by cell name.

    The single declaration of what Table 3, Figure 3 and Figure 4 are
    computed from; ``combine`` adds the unoptimized run with message
    combining on, ``faults`` the fully optimized run over that lossy wire.
    """
    dual = ClusterConfig(n_nodes=n_nodes, dual_cpu=True)
    single = ClusterConfig(n_nodes=n_nodes, dual_cpu=False)
    # The full optimizer stack.  rt-elim's whole-program assumptions fail
    # structurally for our cg (its per-owner vector chunks are smaller
    # than a cache block, so senders cannot retain exclusivity) — it gets
    # the base+bulk optimizer there, as the compiler would.
    full = dict(optimize=True, rt_elim=app != "cg")
    # The two headline runs carry the per-phase profiler and the
    # critical-path analyzer: the decomposition tables read their
    # ``phase_breakdown`` and ``critical_path`` (attaching either never
    # perturbs timing or numerics).
    profiled = dict(profile_phases=True, critical_path=True)

    def cell(config: ClusterConfig = dual, **options) -> RunRequest:
        return RunRequest(
            app=app, scale=scale, params=params, config=config, **options
        )

    cells = {
        "uni": cell(backend="uniproc"),
        "unopt_dual": cell(**profiled),
        "opt_dual": cell(**full, **profiled),
        "unopt_single": cell(single),
        "opt_single": cell(single, **full),
        "msgpass": cell(backend="msgpass"),
        "opt_base": cell(optimize=True, bulk=False),  # sender-initiated only
        "opt_bulk": cell(optimize=True, bulk=True),   # + bulk transfer
    }
    if combine:
        cells["combined"] = cell(dual.scaled(combine=CombineConfig(enabled=True)))
    if faults is not None:
        cells["faulted"] = cell(
            dual.scaled(faults=faults), **full, audit_each_barrier=True
        )
    return cells


@dataclass
class AppEvaluation:
    """One application's served :func:`paper_cells`, by name (also
    reachable as attributes: ``e.opt_dual``), and every column the tables
    derive from them — these formulas exist nowhere else."""

    app: str
    scale: str
    cells: dict[str, RunResult]
    wall_s: float
    #: the wire the ``faulted`` cell ran over, if it was asked for
    faults: FaultConfig | None = None

    def __getattr__(self, name: str) -> RunResult:
        try:
            return self.__dict__["cells"][name]
        except KeyError:
            raise AttributeError(name) from None

    # ------------------------------ derived --------------------------- #
    @property
    def miss_reduction(self) -> float:
        return 100 * (1 - self.opt_dual.total_misses / max(self.unopt_dual.total_misses, 1))

    @property
    def comm_reduction_dual(self) -> float:
        return 100 * (1 - self.opt_dual.comm_ms / max(self.unopt_dual.comm_ms, 1e-12))

    @property
    def comm_reduction_single(self) -> float:
        return 100 * (1 - self.opt_single.comm_ms / max(self.unopt_single.comm_ms, 1e-12))

    def speedup(self, result: RunResult) -> float:
        return result.speedup_over(self.uni)

    def time_reduction(self, variant: RunResult) -> float:
        return 100 * (1 - variant.elapsed_ns / self.unopt_dual.elapsed_ns)

    def bucket_shares(self, result: RunResult) -> dict[str, float]:
        """Each profiler bucket's share (%) of a profiled cell's total
        node time, summed over all nodes and phases."""
        totals = breakdown_totals(result.phase_breakdown)
        grand = sum(totals.values()) or 1
        return {b: 100 * totals[b] / grand for b in BUCKETS}


def evaluate_app(
    name: str,
    scale: str = "default",
    n_nodes: int = 8,
    session: ServeSession | None = None,
    faults: FaultConfig | None = None,
    combine: bool = False,
    **overrides,
) -> AppEvaluation:
    """Serve :func:`paper_cells` for one application as one batch
    (numerics of every cell cross-checked against the uniprocessor run).

    ``session`` brings a cache and a worker pool; without one the cells
    are computed inline (a default session owns no pool, so there is
    nothing to close).  ``overrides`` are app parameters.
    """
    requests = paper_cells(name, scale, n_nodes, overrides, faults, combine)
    # perf_counter, not time.time(): the wall clock can step backwards
    # (NTP adjustments) and would record a negative evaluation duration.
    t0 = time.perf_counter()
    served = (session or ServeSession()).run_batch(requests.values())
    wall_s = time.perf_counter() - t0
    cells = {cell: sr.result for cell, sr in zip(requests, served)}
    for result in cells.values():
        result.assert_same_numerics(cells["uni"])
    return AppEvaluation(name, scale, cells, wall_s, faults)


def load_bench_artifact(path: str) -> dict | None:
    """Load one bench-matrix artifact; ``None`` when absent or unusable.

    A report run must never fail just because an ablation has not been
    (re)run, so every failure mode — missing file, unreadable file,
    malformed JSON, wrong shape — degrades to ``None`` and the appendix
    says so instead of raising.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    # Matrix artifacts carry per-app cells; schema'd artifacts (the
    # engine-speed and serve benches) are self-describing.
    if not isinstance(data.get("apps"), dict) and not isinstance(
        data.get("schema"), str
    ):
        return None
    return data


def _render_serve_artifact(name: str, data: dict, out) -> None:
    """Serve-layer bench: wall times, speedup and cache provenance.

    Every number in the report is reproducible from cold compute, but a
    sweep may have *served* cells from the content-addressed cache or a
    worker pool — this section records that provenance (dataclass
    equality between the modes is asserted by the bench itself).
    """
    out(f"- `{name}` — serve layer: {data.get('n_cells', '?')} cells at"
        f" scale {data.get('scale', '?')}, jobs={data.get('jobs', '?')},"
        f" cpus={data.get('cpus', '?')}:\n")
    out("| mode | wall s | note |")
    out("|---|---|---|")
    out(f"| serial | {data.get('serial_s', 0):.2f} | baseline |")
    out(f"| parallel | {data.get('parallel_s', 0):.2f} |"
        f" {data.get('speedup', 0):.2f}x vs serial |")
    out(f"| warm cache | {data.get('warm_s', 0):.2f} |"
        f" {100 * data.get('warm_fraction', 0):.1f}% of cold,"
        f" hit rate {100 * data.get('warm_hit_rate', 0):.0f}% |")
    prov = data.get("provenance", {})
    if prov:
        bits = []
        for mode in ("serial", "parallel", "warm"):
            p = prov.get(mode)
            if p:
                bits.append(
                    f"{mode}: {p.get('computed', 0)} computed"
                    f" ({p.get('pool', 0)} pooled),"
                    f" {p.get('cache_hits', 0)} cached,"
                    f" {p.get('plans_built', 0)} plans built"
                )
        out("")
        out("  cache provenance — " + "; ".join(bits))
    out("")


def _render_engine_artifact(name: str, data: dict, out) -> None:
    """Engine-speed bench: host-wall speedups vs the recorded baseline."""
    out(f"- `{name}` — engine speed vs baseline"
        f" `{data.get('baseline_commit', '?')}`"
        f" (geomean {data.get('geomean_speedup', '?')}x,"
        f" {data.get('n_nodes', '?')} nodes,"
        f" {data.get('repeats', '?')} repeats):\n")
    apps = data.get("apps", {})
    scales = sorted({s for cells in apps.values() for s in cells})
    out("| app | " + " | ".join(f"{s} speedup" for s in scales) + " |")
    out("|---|" + "---|" * len(scales))
    for app in sorted(apps):
        cells = apps[app]
        row = [
            (f"{cells[s]['speedup']:.2f}x"
             if s in cells and "speedup" in cells[s] else "-")
            for s in scales
        ]
        out(f"| {app} | " + " | ".join(row) + " |")
    off = data.get("off_cells_speedup")
    if off:
        pairs = ", ".join(f"{a} {v:.2f}x" for a, v in sorted(off.items()))
        out(f"\n  Unoptimized off-cells (the CI perf-guard pair): {pairs}"
            " host-wall vs the same baseline.")
    build = data.get("build_cells")
    if build:
        pairs = ", ".join(f"{a} {v:.3f} s" for a, v in sorted(build.items()))
        out(f"\n  Functional-pass build cells (`build_shmem_plan` alone, also"
            f" guarded): {pairs} at calibration"
            f" {data.get('calibration_s', '?')} s.")
    out("")


def render_bench_appendix(artifacts: dict[str, dict | None]) -> str:
    """Markdown appendix over the ablation benches' JSON artifacts.

    Present artifacts get a per-app cell table (elapsed time per matrix
    cell); absent or unusable ones get a one-line pointer at the bench
    that regenerates them.
    """
    lines: list[str] = []
    out = lines.append
    out("## Appendix — ablation bench artifacts\n")
    for name in sorted(artifacts):
        data = artifacts[name]
        if data is None:
            out(f"- `{name}`: not found — run the matching bench under"
                " `benchmarks/` (`pytest benchmarks/ -s`) to regenerate.")
            continue
        schema = data.get("schema", "")
        if schema.startswith("serve/"):
            _render_serve_artifact(name, data, out)
            continue
        if schema.startswith("engine-speed/"):
            _render_engine_artifact(name, data, out)
            continue
        out(f"- `{name}` — scale {data.get('scale', '?')},"
            f" {data.get('n_nodes', '?')} nodes:\n")
        apps = data["apps"]
        cell_keys = sorted({k for cells in apps.values() for k in cells})
        out("| app | " + " | ".join(f"{k} ms" for k in cell_keys) + " |")
        out("|---|" + "---|" * len(cell_keys))
        for app in sorted(apps):
            cells = apps[app]
            row = [
                (f"{cells[k]['elapsed_ns'] / 1e6:.1f}"
                 if k in cells and "elapsed_ns" in cells[k] else "-")
                for k in cell_keys
            ]
            out(f"| {app} | " + " | ".join(row) + " |")
        out("")
    out("")
    return "\n".join(lines)


def render_report(evals: Sequence[AppEvaluation], n_nodes: int) -> str:
    """Markdown report over a list of app evaluations; the combining and
    robustness sections appear when the evaluations carry those cells."""
    lines: list[str] = []
    out = lines.append
    scale = evals[0].scale if evals else "default"
    out(f"# Reproduction results — {scale} scale, {n_nodes} nodes\n")
    out("Regenerated by `python -m repro.report`. Paper values in"
        " parentheses where applicable.\n")

    out("## Table 3 — miss and communication-time reduction\n")
    out("| app | compute ms | comm dual ms | %red dual | comm 1cpu ms "
        "| %red 1cpu | misses/node | %miss red |")
    out("|---|---|---|---|---|---|---|---|")
    for e in evals:
        paper = APPS[e.app].paper
        out(
            f"| {e.app} | {e.unopt_dual.compute_ms:.1f} "
            f"| {e.unopt_dual.comm_ms:.1f} "
            f"| {e.comm_reduction_dual:.1f} ({paper['comm_reduction_dual']}) "
            f"| {e.unopt_single.comm_ms:.1f} "
            f"| {e.comm_reduction_single:.1f} ({paper['comm_reduction_single']}) "
            f"| {e.unopt_dual.misses_per_node:.0f} "
            f"| {e.miss_reduction:.1f} ({paper['miss_reduction']}) |"
        )
    out("")

    out("## Figure 3 — speedups\n")
    out("| app | sm-1cpu | sm-1cpu-opt | sm-2cpu | sm-2cpu-opt | msg-pass |")
    out("|---|---|---|---|---|---|")
    for e in evals:
        out(
            f"| {e.app} | {e.speedup(e.unopt_single):.2f} "
            f"| {e.speedup(e.opt_single):.2f} "
            f"| {e.speedup(e.unopt_dual):.2f} "
            f"| {e.speedup(e.opt_dual):.2f} "
            f"| {e.speedup(e.msgpass):.2f} |"
        )
    out("")

    out("## Figure 4 — optimization breakdown (dual CPU, % time reduction)\n")
    out("| app | base opt | +bulk | full stack |")
    out("|---|---|---|---|")
    for e in evals:
        out(
            f"| {e.app} | {e.time_reduction(e.opt_base):.1f} "
            f"| {e.time_reduction(e.opt_bulk):.1f} "
            f"| {e.time_reduction(e.opt_dual):.1f} |"
        )
    out("")

    out("## Time decomposition — where each run's time goes (dual CPU)\n")
    out("Per-phase profiler buckets summed over all nodes and phases, as a"
        " share of total node time; the optimizer's win shows up as the"
        " read-miss and barrier-wait shares moving into compute.\n")
    out("| app | mode | " + " | ".join(b.replace("_", " ") for b in BUCKETS) + " |")
    out("|---|---|" + "---|" * len(BUCKETS))
    for e in evals:
        for mode, r in (("unopt", e.unopt_dual), ("opt", e.opt_dual)):
            if r.phase_breakdown is None:
                continue
            cells = " | ".join(f"{s:.1f}%" for s in e.bucket_shares(r).values())
            out(f"| {e.app} | {mode} | {cells} |")
    out("")

    out("### Critical path — the one chain that sets elapsed time\n")
    out("Exact backward walk over the causal event DAG; each run's cost"
        " classes sum to its elapsed time to the nanosecond.  The what-if"
        " column is the perfect-overlap lower bound: elapsed time if every"
        " barrier-slack segment cost zero (`repro <app> --critical-path"
        " --whatif barrier` reproduces a row).\n")
    out("| app | mode | " + " | ".join(c.replace("_", " ") for c in COST_CLASSES)
        + " | elapsed ms | what-if barrier |")
    out("|---|---|" + "---|" * (len(COST_CLASSES) + 2))
    for e in evals:
        for mode, r in (("unopt", e.unopt_dual), ("opt", e.opt_dual)):
            if r.critical_path is None:
                continue
            cp = r.critical_path
            elapsed = cp["elapsed_ns"] or 1
            cells = " | ".join(
                f"{100 * cp['classes'][c] / elapsed:.1f}%" for c in COST_CLASSES
            )
            bound = cp["whatif"]["barrier"]
            out(
                f"| {e.app} | {mode} | {cells} | {elapsed / 1e6:.1f} "
                f"| >= {bound / 1e6:.1f} ms "
                f"(-{100 * (elapsed - bound) / elapsed:.1f}%) |"
            )
    out("")

    if evals and "combined" in evals[0].cells:
        out("## Message combining — unoptimized runs, control traffic"
            " coalesced\n")
        out("| app | baseline msgs | combined msgs | %fewer | absorbed "
            "| frames | baseline ms | combined ms | numerics |")
        out("|---|---|---|---|---|---|---|---|---|")
        for e in evals:
            c = e.combined
            base_msgs = e.unopt_dual.stats.total_messages
            comb_msgs = c.stats.total_messages
            out(
                f"| {e.app} | {base_msgs} | {comb_msgs} "
                f"| {100 * (1 - comb_msgs / max(base_msgs, 1)):.1f} "
                f"| {c.stats.total_msgs_combined} "
                f"| {c.stats.total_combine_flushes} "
                f"| {e.unopt_dual.elapsed_ms:.1f} | {c.elapsed_ms:.1f} "
                f"| identical |"
            )
        out("")

    if evals and "faulted" in evals[0].cells:
        fault_cfg = evals[0].faults
        out(f"## Robustness — optimized runs at {fault_cfg.drop_prob * 100:.0f}% drop"
            f" (dup {fault_cfg.dup_prob * 100:.0f}%,"
            f" jitter {fault_cfg.jitter_ns / 1000:.0f} µs,"
            f" seed {fault_cfg.seed})\n")
        out("| app | clean ms | faulted ms | slowdown | retransmits | drops "
            "| dups | numerics | audit |")
        out("|---|---|---|---|---|---|---|---|---|")
        for e in evals:
            f = e.faulted
            rel = f.reliability
            out(
                f"| {e.app} | {e.opt_dual.elapsed_ms:.1f} | {f.elapsed_ms:.1f} "
                f"| {f.elapsed_ns / e.opt_dual.elapsed_ns:.2f}x "
                f"| {rel.get('retransmits', 0)} | {rel.get('drops', 0)} "
                f"| {rel.get('dups', 0)} | identical | clean |"
            )
        out("")

    out("## Run costs\n")
    out("| app | wall seconds |")
    out("|---|---|")
    for e in evals:
        out(f"| {e.app} | {e.wall_s:.1f} |")
    out("")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="repro.report", description=__doc__)
    p.add_argument("-o", "--output", default="-",
                   help="output file ('-' for stdout)")
    add_flags(p, RunRequest, only=("scale",))
    add_flags(p, ClusterConfig, only=("n_nodes",))
    p.add_argument("--apps", default=",".join(APPS),
                   help="comma-separated subset of apps")
    # The same flags as ``repro APP``; here a nonzero --fault-drop or a
    # --combine adds a robustness / combining section to the report.
    add_flags(p, FaultConfig, only=("drop_prob", "seed"))
    add_flags(p, CombineConfig, only=("enabled",))
    p.set_defaults(fault_seed=1997)
    p.add_argument("--bench-dir", default=None, metavar="DIR",
                   help="append an appendix over the ablation benches' "
                        "BENCH_*.json artifacts in DIR (missing artifacts "
                        "are noted, never an error)")
    args = p.parse_args(argv)
    names = [a.strip() for a in args.apps.split(",") if a.strip()]
    unknown = [a for a in names if a not in APPS]
    if unknown:
        print(f"unknown apps: {unknown}", file=sys.stderr)
        return 2

    try:
        faults = None
        if args.fault_drop > 0.0:
            faults = FaultConfig(
                drop_prob=args.fault_drop,
                dup_prob=args.fault_drop / 2,
                jitter_ns=10 * US,
                seed=args.fault_seed,
            )
        # every cell is refused now, before any app is evaluated
        for name in names:
            paper_cells(name, args.scale, args.nodes, faults=faults, combine=args.combine)
    except OptionError as e:  # a usage error naming the flags that set the fields
        p.error(usage(e, RunRequest))
    evals = []
    for name in names:
        print(f"evaluating {name} ...", file=sys.stderr)
        evals.append(evaluate_app(
            name, args.scale, args.nodes, faults=faults, combine=args.combine
        ))
    report = render_report(evals, args.nodes)
    if args.bench_dir is not None:
        artifacts = {
            name: load_bench_artifact(os.path.join(args.bench_dir, name))
            for name in BENCH_ARTIFACTS
        }
        report += "\n" + render_bench_appendix(artifacts)
    if args.output == "-":
        print(report)
    else:
        with open(args.output, "w") as fh:
            fh.write(report)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
