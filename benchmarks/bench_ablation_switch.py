"""Ablation — shared-switch contention (switch x combining).

Runs jacobi and shallow (the acceptance pair) unoptimized at 8 nodes
through the 2x2 matrix of {link-only / shared switch} x {combining
off/on} and reports, per app: elapsed simulated time, wire messages and
bytes, the engine's events-dispatched count, and the switch's queueing
counters (frames routed, accumulated port-contention delay, deepest
port backlog).  Numerics are cross-checked against the uniprocessor
reference in every cell.

The full matrix is written to ``BENCH_switch.json`` so downstream
tooling (``python -m repro.report --bench-dir``) can diff ablations
without re-running the suite.

Three properties should hold:

* with the switch **off**, the model is inert: those cells are
  byte-identical to the link-only baseline, counter for counter;
* with the switch **on**, contention is real and measured: frames
  queue on hot output ports (nonzero wait, depth >= 2) and the run
  never gets faster;
* combining composes: it still sheds control frames under contention,
  and fewer frames means less port pressure, never more.
"""

import pytest

from benchmarks.conftest import print_table, run_matrix, write_artifact
from repro.tempest.config import ClusterConfig, CombineConfig, SwitchConfig

#: The acceptance pair: the invalidation-heavy stencil and the wide
#: boundary-exchange app, both all-to-one at every barrier.
BENCH_APPS = ["jacobi", "shallow"]
N_NODES = 8
JSON_PATH = "BENCH_switch.json"


def cell(result) -> dict:
    s = result.stats
    return {
        "elapsed_ns": result.elapsed_ns,
        "messages": s.total_messages,
        "bytes": s.total_bytes,
        "events_dispatched": s.events_dispatched,
        "switch_frames": s.total_switch_frames,
        "switch_wait_ns": s.total_switch_wait_ns,
        "max_port_depth": s.max_port_depth,
        "msgs_combined": s.total_msgs_combined,
        "combine_flushes": s.total_combine_flushes,
    }


#: The 2x2 (also the matrix ``bench_serve.py`` times the serve layer on).
VARIANTS = {
    f"{'switch' if switch else 'link'}+{'combine' if combine else 'plain'}":
    ClusterConfig(
        n_nodes=N_NODES,
        switch=SwitchConfig(enabled=switch),
        combine=CombineConfig(enabled=combine),
    )
    for switch in (False, True)
    for combine in (False, True)
}


def test_ablation_switch_matrix(benchmark):
    def measure():
        # The whole (app x 2x2) matrix plus per-app uniproc references in
        # one batch — all cells of an app share one plan.
        results = run_matrix(BENCH_APPS, VARIANTS, N_NODES)
        return {
            app: {name: cell(r) for name, r in cells.items()}
            for app, cells in results.items()
        }

    matrix = benchmark.pedantic(measure, rounds=1, iterations=1)

    print_table(
        f"Ablation: shared switch ({N_NODES} nodes, unopt, link-rate ports)",
        ["app", "ms link", "ms switch", "slowdown", "frames",
         "queued ms", "max depth", "events link", "events switch"],
        [
            [
                app,
                f"{c['link+plain']['elapsed_ns'] / 1e6:.1f}",
                f"{c['switch+plain']['elapsed_ns'] / 1e6:.1f}",
                f"{c['switch+plain']['elapsed_ns'] / c['link+plain']['elapsed_ns']:.3f}",
                c["switch+plain"]["switch_frames"],
                f"{c['switch+plain']['switch_wait_ns'] / 1e6:.2f}",
                c["switch+plain"]["max_port_depth"],
                c["link+plain"]["events_dispatched"],
                c["switch+plain"]["events_dispatched"],
            ]
            for app, c in matrix.items()
        ],
    )
    print_table(
        "Ablation: combining under contention (switch on, off)",
        ["app", "msgs sw", "msgs sw+c", "queued ms sw", "queued ms sw+c",
         "absorbed", "ms sw", "ms sw+c"],
        [
            [
                app,
                c["switch+plain"]["messages"],
                c["switch+combine"]["messages"],
                f"{c['switch+plain']['switch_wait_ns'] / 1e6:.2f}",
                f"{c['switch+combine']['switch_wait_ns'] / 1e6:.2f}",
                c["switch+combine"]["msgs_combined"],
                f"{c['switch+plain']['elapsed_ns'] / 1e6:.1f}",
                f"{c['switch+combine']['elapsed_ns'] / 1e6:.1f}",
            ]
            for app, c in matrix.items()
        ],
    )

    write_artifact(
        JSON_PATH, matrix, N_NODES,
        watch=("switch+plain", "switch_wait_ns", lambda ns: f"{ns / 1e6:.2f} ms"),
    )

    for app, cells in matrix.items():
        link, sw = cells["link+plain"], cells["switch+plain"]
        # Disabled switch is inert: not one counter moves.
        assert link["switch_frames"] == 0 and link["switch_wait_ns"] == 0, app
        assert cells["link+combine"]["switch_frames"] == 0, app
        # Enabled switch routes every remote frame and measures real
        # queueing: hot ports (the barrier manager's at least) backlog.
        assert sw["switch_frames"] > 0, app
        assert sw["switch_wait_ns"] > 0, app
        assert sw["max_port_depth"] >= 2, app
        assert sw["elapsed_ns"] >= link["elapsed_ns"], app
        # Combining still works under contention and never adds frames
        # or port pressure.
        swc = cells["switch+combine"]
        assert swc["msgs_combined"] > 0, app
        assert swc["messages"] <= sw["messages"], app
        assert swc["switch_frames"] <= sw["switch_frames"], app
