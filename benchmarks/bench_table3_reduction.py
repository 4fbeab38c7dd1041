"""Table 3 — reduction in miss count and communication time.

For each application, on 8 nodes:

* compute time (per-node average),
* communication time, dual-CPU, unoptimized — and its % reduction with the
  optimizations on,
* the same for the single-CPU configuration,
* per-node miss count of the unoptimized run — and its % reduction.

Absolute times are simulation outputs at the bench scale (paper scale via
``REPRO_PAPER_SCALE=1``); the comparison targets are the *reduction*
columns, which are scale-robust.
"""

import pytest

from benchmarks.conftest import (
    APP_NAMES,
    bench_scale,
    experiments_table,
    print_table,
)
from repro.apps import APPS


def test_table3_reduction(evaluations, benchmark):
    # The cells and the reduction columns are repro.report's: the full
    # optimization stack, with its one exception for cg.
    rows = benchmark.pedantic(
        lambda: [
            dict(
                app=e.app,
                compute_ms=e.unopt_dual.compute_ms,
                comm_dual_ms=e.unopt_dual.comm_ms,
                red_dual=e.comm_reduction_dual,
                comm_single_ms=e.unopt_single.comm_ms,
                red_single=e.comm_reduction_single,
                misses_per_node=e.unopt_dual.misses_per_node,
                miss_red=e.miss_reduction,
            )
            for e in map(evaluations.get, APP_NAMES)
        ],
        rounds=1, iterations=1,
    )
    display = []
    for r in rows:
        paper = APPS[r["app"]].paper
        display.append(
            [
                r["app"],
                f"{r['compute_ms']:.1f}",
                f"{r['comm_dual_ms']:.1f}",
                f"{r['red_dual']:.1f} ({paper['comm_reduction_dual']})",
                f"{r['comm_single_ms']:.1f}",
                f"{r['red_single']:.1f} ({paper['comm_reduction_single']})",
                f"{r['misses_per_node']:.0f}",
                f"{r['miss_red']:.1f} ({paper['miss_reduction']})",
            ]
        )
    print_table(
        f"Table 3: miss & comm-time reduction [scale={bench_scale()}] "
        "(ours, paper in parens)",
        [
            "app",
            "compute ms",
            "comm dual ms",
            "%red dual",
            "comm 1cpu ms",
            "%red 1cpu",
            "misses/node",
            "%miss red",
        ],
        display,
    )
    if bench_scale() == "default":
        # EXPERIMENTS.md publishes these columns; hold it to the bench.
        assert experiments_table("**Default scale**") == [
            [r["app"]] + [f"{r[c]:.1f}" for c in ("miss_red", "red_dual", "red_single")]
            for r in rows
        ]

    by_app = {r["app"]: r for r in rows}
    # Shape assertions (scale-robust):
    # 1. Every app's optimization reduces both misses and comm time.
    for r in rows:
        assert r["miss_red"] > 10, r
        assert r["red_dual"] > 0, r
    # 2. The stencil codes achieve strong miss reductions...
    for app in ("jacobi", "shallow"):
        assert by_app[app]["miss_red"] > 55, by_app[app]
    # ...and jacobi is the best of the suite, as in the paper (96.7%).
    assert by_app["jacobi"]["miss_red"] == max(r["miss_red"] for r in rows)
    # 3. grav's small extents make it the weakest, as in the paper (38.2%).
    assert by_app["grav"]["miss_red"] == min(r["miss_red"] for r in rows)
    # 4. Single-CPU communication time exceeds dual-CPU everywhere.
    for r in rows:
        assert r["comm_single_ms"] > r["comm_dual_ms"], r
