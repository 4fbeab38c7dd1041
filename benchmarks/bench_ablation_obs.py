"""Ablation — observability overhead (off / counters / full bus / export).

Runs jacobi and shallow (the acceptance pair) unoptimized at 8 nodes four
times each with increasing instrumentation:

* **off** — no bus attached: the zero-cost baseline (no event objects are
  ever constructed);
* **counters** — bus + :class:`~repro.obs.metrics.MetricsRegistry` only,
  the cheapest useful subscriber;
* **bus** — registry + the timeline folded per phase, the full analysis
  stack;
* **lineage** — the above + the timeline recording causal parent links
  and folded into the critical path (``critical_path=True``), the
  heaviest pure-analysis cell;
* **export** — all of the above + the Chrome trace exporter, trace
  written to disk.

Reported per app/cell: host wall time, simulated elapsed time, events
published.  The matrix is written to ``BENCH_obs.json`` so downstream
tooling (``python -m repro.report --bench-dir``) can diff overhead
without re-running, and so the next run can flag wall-time drift.

Three properties must hold:

* instrumentation never perturbs the simulation — simulated time, stats
  counters and numerics are identical in every cell;
* the registry's event-derived counters equal the stats counters exactly
  wherever a bus is attached;
* the no-bus cell publishes zero events.
"""

import os
import tempfile
import time

import pytest

from benchmarks.conftest import (
    bench_request,
    bench_scale,
    print_table,
    run_cells,
    write_artifact,
)
from repro.apps import APPS
from repro.obs import ChromeTraceExporter, EventBus, MetricsRegistry
from repro.runtime import run_shmem
from repro.tempest.config import ClusterConfig

BENCH_APPS = ["jacobi", "shallow"]
N_NODES = 8
JSON_PATH = "BENCH_obs.json"
CELLS = ["off", "counters", "bus", "lineage", "export"]


def run_cell(prog, variant: str):
    """One instrumentation level; returns (result, bus, registry, exporter)."""
    cfg = ClusterConfig(n_nodes=N_NODES)
    if variant == "off":
        return run_shmem(prog, cfg), None, None, None
    bus = EventBus()
    registry = MetricsRegistry(bus, N_NODES)
    exporter = None
    profile = False
    if variant in ("bus", "lineage", "export"):
        profile = True  # run_shmem attaches a Timeline to the bus
    if variant == "export":
        exporter = ChromeTraceExporter(bus, n_nodes=N_NODES)
    critical = variant in ("lineage", "export")
    result = run_shmem(
        prog, cfg, obs=bus, profile_phases=profile, critical_path=critical
    )
    return result, bus, registry, exporter


def test_ablation_obs_overhead(benchmark):
    # The instrumented cells deliberately stay on direct run_shmem: this
    # bench times host wall per instrumentation level, which a cache hit
    # would falsify, and an attached EventBus is not a cache-keyable
    # input.  Only the uniprocessor numerics references ride the serve
    # layer (and fan out under REPRO_BENCH_JOBS).
    def measure():
        unis = run_cells({
            app: bench_request(
                app, ClusterConfig(n_nodes=N_NODES), backend="uniproc"
            )
            for app in BENCH_APPS
        })
        matrix = {}
        for app, uni in unis.items():
            prog = APPS[app].program(bench_scale())
            cells = {}
            baseline = None
            for variant in CELLS:
                t0 = time.perf_counter()
                result, bus, registry, exporter = run_cell(prog, variant)
                if exporter is not None:
                    with tempfile.TemporaryDirectory() as d:
                        path = os.path.join(d, "trace.json")
                        exporter.write(path)
                        trace_bytes = os.path.getsize(path)
                else:
                    trace_bytes = 0
                wall_s = time.perf_counter() - t0
                result.assert_same_numerics(uni)
                if registry is not None:
                    registry.assert_matches(result.stats)
                if variant in ("lineage", "export"):
                    # The folding's exactness invariant holds at bench
                    # scale too: the critical path partitions elapsed time.
                    cp = result.critical_path
                    assert cp is not None, (app, variant)
                    assert sum(cp["classes"].values()) == result.elapsed_ns
                if baseline is None:
                    baseline = result
                else:
                    # The whole point: instrumentation is invisible to the
                    # simulation, counter for counter.
                    assert result.elapsed_ns == baseline.elapsed_ns, (app, variant)
                    assert result.stats == baseline.stats, (app, variant)
                cells[variant] = {
                    "elapsed_ns": result.elapsed_ns,
                    "wall_s": round(wall_s, 4),
                    "events_published": bus.events_published if bus else 0,
                    "trace_bytes": trace_bytes,
                }
            matrix[app] = cells
        return matrix

    matrix = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_table(
        f"Ablation: observability overhead ({N_NODES} nodes, unopt, "
        f"scale={bench_scale()})",
        ["app"] + [f"{c} s" for c in CELLS] + ["events", "trace MB",
                                              "export/off"],
        [
            [
                app,
                *(f"{c[v]['wall_s']:.2f}" for v in CELLS),
                c["bus"]["events_published"],
                f"{c['export']['trace_bytes'] / 1e6:.2f}",
                f"{c['export']['wall_s'] / max(c['off']['wall_s'], 1e-9):.2f}x",
            ]
            for app, c in matrix.items()
        ],
    )

    write_artifact(
        JSON_PATH, matrix, N_NODES,
        watch=("export", "wall_s", lambda s: f"{s:.2f} s"),
    )

    for app, cells in matrix.items():
        assert cells["off"]["events_published"] == 0, app
        assert cells["counters"]["events_published"] > 0, app
        # Publishing is subscriber-independent: the same run over the same
        # bus emits the same event stream no matter who is listening.
        assert (
            cells["counters"]["events_published"]
            == cells["bus"]["events_published"]
            == cells["lineage"]["events_published"]
            == cells["export"]["events_published"]
        ), app
        assert cells["export"]["trace_bytes"] > 0, app
