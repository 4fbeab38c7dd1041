"""Ablation — network latency sensitivity.

The paper's motivation: "On systems that implement shared memory over a
cluster of workstations, the higher communication latencies make coherence
overhead even more taxing."  This bench sweeps the wire latency from
SAN-class (2 µs) through the paper's Myrinet (10 µs) to commodity-Ethernet
territory (50 µs) and measures how the optimization's benefit scales —
the compiler's one-message transfers amortize latency that the default
protocol's multi-message chains pay repeatedly.
"""

import pytest

from benchmarks.conftest import print_table, run_matrix
from repro.tempest.config import US, ClusterConfig

WIRE_US = (2, 10, 25, 50)


def test_ablation_network_latency(benchmark):
    def measure():
        variants = {
            wire_us: ClusterConfig(n_nodes=8, wire_latency_ns=wire_us * US)
            for wire_us in WIRE_US
        }
        unopts = run_matrix(["jacobi"], variants)["jacobi"]
        opts = run_matrix(["jacobi"], variants, optimize=True)["jacobi"]
        rows = []
        for wire_us in WIRE_US:
            unopt, opt = unopts[wire_us], opts[wire_us]
            opt.assert_same_numerics(unopt)
            rows.append(
                (
                    wire_us,
                    unopt.elapsed_ns,
                    opt.elapsed_ns,
                    100 * (1 - opt.elapsed_ns / unopt.elapsed_ns),
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation: one-way wire latency (jacobi, 8 nodes)",
        ["wire us", "unopt ms", "opt ms", "time reduction %"],
        [
            [w, f"{u / 1e6:.1f}", f"{o / 1e6:.1f}", f"{r:.1f}"]
            for w, u, o, r in rows
        ],
    )
    by_lat = {r[0]: r for r in rows}
    # The paper's motivating claim: higher latency, more taxing coherence
    # overhead — and proportionally more benefit from bypassing it.
    assert by_lat[50][3] > by_lat[10][3] > by_lat[2][3]
    # The optimized version degrades much more gracefully with latency.
    unopt_slowdown = by_lat[50][1] / by_lat[2][1]
    opt_slowdown = by_lat[50][2] / by_lat[2][2]
    assert opt_slowdown < unopt_slowdown
