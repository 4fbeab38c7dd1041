"""Ablation — home placement (owner vs home, DESIGN.md decision #6).

The paper is explicit that owner and home need not coincide (Section 4.2
step 1 exists because of it).  This ablation measures the cost of
misaligned homes for the default protocol — with round-robin or
all-on-node-0 page placement every "local" access becomes a remote
directory transaction — and shows that the compiler-optimized
version stays strictly faster under every placement (its steady-state
pushes bypass the home entirely), even though its setup traffic makes its
*relative* slowdown comparable.
"""

import pytest

from benchmarks.conftest import bench_request, print_table, run_cells
from repro.tempest.memory import HomePolicy

POLICIES = (HomePolicy.ALIGNED, HomePolicy.ROUND_ROBIN, HomePolicy.NODE0)


def test_ablation_home_placement(benchmark):
    def measure():
        cells = run_cells({
            (policy, optimize): bench_request(
                "jacobi", optimize=optimize, home_policy=policy
            )
            for policy in POLICIES
            for optimize in (False, True)
        })
        out = {}
        for policy in POLICIES:
            unopt, opt = cells[policy, False], cells[policy, True]
            opt.assert_same_numerics(unopt)
            out[policy.value] = (unopt.elapsed_ns, opt.elapsed_ns)
        return out

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    aligned_un, aligned_opt = out["aligned"]
    rows = []
    for policy, (un, opt) in out.items():
        rows.append(
            [
                policy,
                f"{un / 1e6:.1f}",
                f"{opt / 1e6:.1f}",
                f"{un / aligned_un:.2f}x",
                f"{opt / aligned_opt:.2f}x",
            ]
        )
    print_table(
        "Ablation: page-home placement (jacobi, 8 nodes)",
        ["home policy", "unopt ms", "opt ms", "unopt vs aligned", "opt vs aligned"],
        rows,
    )
    # Misaligned homes hurt the unoptimized protocol...
    assert out["round_robin"][0] > 1.05 * aligned_un
    assert out["node0"][0] > 1.05 * aligned_un
    # ...and node0 (a directory hot-spot) is worse than round-robin.
    assert out["node0"][0] > out["round_robin"][0]
    # The optimized version remains strictly faster under every placement.
    for policy, (un, opt) in out.items():
        assert opt < un, policy
