"""Ablation — reduction algorithm (grav's limiter).

The paper: grav "executes a large number of SUM reductions, which, while
efficiently implemented using low-level messages, ultimately limit
speedups in both shared memory and message passing."  The substrate offers
two reduction algorithms — central (combine at the root; the root's
protocol CPU serializes N contributions) and binomial tree (2·log2 N
hops) — so the limiter itself is tunable.  At the paper's 8 nodes they are
close; the tree pulls ahead as nodes double.
"""

import pytest

from benchmarks.conftest import bench_request, print_table, run_cells
from repro.tempest.config import ClusterConfig

GRID = [(nodes, algo) for nodes in (8, 16) for algo in ("central", "tree")]


def test_ablation_reduce_algorithm(benchmark):
    def measure():
        cells = run_cells({
            (nodes, algo): bench_request(
                "grav",
                ClusterConfig(n_nodes=nodes, reduce_algorithm=algo),
                optimize=True,
            )
            for nodes, algo in GRID
        })
        rows = []
        for (nodes, algo), r in cells.items():
            reduce_ms = sum(s.reduce_ns for s in r.stats.nodes) / len(
                r.stats.nodes
            ) / 1e6
            rows.append((nodes, algo, r.elapsed_ms, reduce_ms))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation: reduction algorithm (grav, optimized)",
        ["nodes", "algorithm", "total ms", "reduce ms/node"],
        [[n, a, f"{t:.1f}", f"{rd:.2f}"] for n, a, t, rd in rows],
    )
    data = {(n, a): (t, rd) for n, a, t, rd in rows}
    # Reductions are a real fraction of grav's time (the paper's limiter).
    assert data[(8, "central")][1] > 0
    # The tree wins at 16 nodes on reduce time.
    assert data[(16, "tree")][1] < data[(16, "central")][1]
    # Numerics and totals stay sane.
    for (n, a), (t, rd) in data.items():
        assert t > 0 and rd >= 0
