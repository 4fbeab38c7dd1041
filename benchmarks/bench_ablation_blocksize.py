"""Ablation — coherence block size (the paper's "e.g. 32-128 bytes").

Block size trades false sharing and per-block overheads against transfer
granularity.  Two effects the paper discusses appear directly:

* the unoptimized protocol prefers larger blocks (fewer misses for the
  same bytes) until false sharing bites;
* the *optimized* scheme's controllable fraction shrinks as blocks grow
  (the grav effect: "the array extents are rather small, and thus the
  edge effects are pronounced at 128-bytes blocksize"), while bulk
  transfer already gives it large payloads regardless of block size.
"""

import pytest

from benchmarks.conftest import print_table, run_matrix
from repro.tempest.config import ClusterConfig

BLOCK_SIZES = (32, 64, 128, 256)


def test_ablation_block_size(benchmark):
    # grav is the edge-effect-sensitive app.
    def measure():
        variants = {bs: ClusterConfig(n_nodes=8, block_size=bs) for bs in BLOCK_SIZES}
        unopts = run_matrix(["grav"], variants, scale="default")["grav"]
        opts = run_matrix(["grav"], variants, scale="default", optimize=True)["grav"]
        rows = []
        for bs in BLOCK_SIZES:
            unopt, opt = unopts[bs], opts[bs]
            opt.assert_same_numerics(unopt)
            rows.append(
                (
                    bs,
                    unopt.misses_per_node,
                    opt.misses_per_node,
                    100 * (1 - opt.total_misses / unopt.total_misses),
                    unopt.elapsed_ns,
                    opt.elapsed_ns,
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation: coherence block size (grav, 8 nodes)",
        ["block B", "unopt misses/node", "opt misses/node", "miss red %", "unopt ms", "opt ms"],
        [
            [bs, f"{um:.0f}", f"{om:.0f}", f"{red:.1f}", f"{ut/1e6:.1f}", f"{ot/1e6:.1f}"]
            for bs, um, om, red, ut, ot in rows
        ],
    )
    by_bs = {r[0]: r for r in rows}
    # Smaller blocks leave more of the section controllable: the miss
    # *reduction* percentage falls as blocks grow (the paper's grav story).
    assert by_bs[32][3] > by_bs[128][3] > by_bs[256][3] - 1e-9
    # Larger blocks cut raw miss counts for the unoptimized protocol.
    assert by_bs[256][1] < by_bs[32][1]
