"""Ablation — node-count scaling.

The paper reports a single 8-node point; the simulator makes the scaling
curve cheap.  With a fixed problem (strong scaling), halo traffic per node
stays constant while compute shrinks, so communication takes over — and
the optimized version holds its efficiency further out.
"""

import pytest

from benchmarks.conftest import bench_request, print_table, run_cells
from repro.tempest.config import ClusterConfig

NODE_COUNTS = (2, 4, 8, 16)


def test_ablation_node_scaling(benchmark):
    def measure():
        cells = {
            "uni": bench_request(
                "jacobi", ClusterConfig(n_nodes=1), backend="uniproc"
            )
        }
        for nodes in NODE_COUNTS:
            cfg = ClusterConfig(n_nodes=nodes)
            cells[nodes, "unopt"] = bench_request("jacobi", cfg)
            cells[nodes, "opt"] = bench_request("jacobi", cfg, optimize=True)
        results = run_cells(cells)
        uni = results["uni"]
        rows = []
        for nodes in NODE_COUNTS:
            unopt, opt = results[nodes, "unopt"], results[nodes, "opt"]
            opt.assert_same_numerics(uni)
            rows.append(
                (
                    nodes,
                    uni.elapsed_ns / unopt.elapsed_ns,
                    uni.elapsed_ns / opt.elapsed_ns,
                    unopt.misses_per_node,
                    opt.misses_per_node,
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation: strong scaling (jacobi)",
        ["nodes", "unopt speedup", "opt speedup", "unopt miss/nd", "opt miss/nd"],
        [
            [n, f"{su:.2f}", f"{so:.2f}", f"{mu:.0f}", f"{mo:.0f}"]
            for n, su, so, mu, mo in rows
        ],
    )
    by_nodes = {r[0]: r for r in rows}
    # Optimized beats unoptimized at every width...
    for n, su, so, _mu, _mo in rows:
        assert so > su, n
    # ...speedups grow with node count in this range...
    assert by_nodes[8][2] > by_nodes[4][2] > by_nodes[2][2]
    # ...and the optimization's *relative* advantage widens as the
    # surface-to-volume ratio worsens.
    adv = {n: so / su for n, su, so, _m, _o in rows}
    assert adv[16] > adv[2]
