"""Figure 4 — benefits of bulk transfer and run-time overhead elimination.

Per application (dual-CPU), total-execution-time reduction relative to the
unoptimized run for three optimizer stacks:

* **base** — sender-initiated transfers only (Section 4.2, one block per
  message, full call schedule);
* **+bulk** — contiguous blocks coalesced into large payloads;
* **+bulk +rt-elim** — run-time overhead elimination on top (Section 4.3).

The paper's finding: "both these optimizations are important ... however
bulk transfer is the more important optimization".
"""

import pytest

from benchmarks.conftest import (
    APP_NAMES,
    bench_scale,
    experiments_table,
    print_table,
)
from repro.obs import BUCKETS


def test_fig4_breakdown(evaluations, benchmark):
    # "full" is the full stack of repro.report's matrix: +rt-elim
    # everywhere but cg, where it is structurally inapplicable.
    rows = benchmark.pedantic(
        lambda: [
            dict(
                app=e.app,
                base=e.time_reduction(e.opt_base),
                bulk=e.time_reduction(e.opt_bulk),
                full=e.time_reduction(e.opt_dual),
            )
            for e in map(evaluations.get, APP_NAMES)
        ],
        rounds=1, iterations=1,
    )
    display = [
        [r["app"], f"{r['base']:.1f}", f"{r['bulk']:.1f}", f"{r['full']:.1f}"]
        for r in rows
    ]
    print_table(
        f"Figure 4: execution-time reduction vs unoptimized [scale={bench_scale()}]",
        ["app", "base opt %", "+bulk %", "+bulk+rt-elim %"],
        display,
    )
    if bench_scale() == "default":
        # EXPERIMENTS.md publishes this table; hold it to the bench.
        assert experiments_table("## Figure 4") == display
    for r in rows:
        # Each increment helps, or is at worst nearly neutral.  (grav can
        # lose ~1 point to rt-elim at small scale: its misaligned pages put
        # homes off-owner, so dropping mk_writable trades pipelined
        # upgrades for demand write-faults on the tiny edge-heavy arrays.)
        assert r["base"] > 0, r
        assert r["bulk"] >= r["base"] - 0.5, r
        assert r["full"] >= r["bulk"] - 2.0, r
    # Both optimizations contribute; the paper's "bulk transfer is the
    # more important optimization" holds at paper payload sizes, while at
    # the scaled-down default the two are comparable (barrier elimination
    # is relatively stronger when loops are short).
    bulk_gain = sum(r["bulk"] - r["base"] for r in rows)
    rte_gain = sum(r["full"] - r["bulk"] for r in rows)
    assert bulk_gain > 0
    assert bulk_gain > 0.5 * rte_gain, (bulk_gain, rte_gain)
    if bench_scale() == "paper":
        assert bulk_gain > rte_gain, (bulk_gain, rte_gain)


def test_fig4_time_decomposition(evaluations, benchmark):
    """Where the time goes, per app: the paper's Figure-4-style view of
    *why* the optimizer wins — read-miss and barrier-wait shares collapse
    while compute share grows (the two profiled headline cells)."""
    def measure():
        rows = []
        for name in APP_NAMES:
            e = evaluations[name]
            for label, res in (("unopt", e.unopt_dual), ("opt", e.opt_dual)):
                bd = res.phase_breakdown
                assert bd is not None
                # The timeline's per-node op spans are contiguous, so the
                # slowest node's bucket total IS the run's elapsed time.
                assert max(bd["node_total_ns"]) == res.elapsed_ns, name
                rows.append(
                    dict(
                        app=name,
                        mode=label,
                        elapsed_ms=res.elapsed_ns / 1e6,
                        **e.bucket_shares(res),
                    )
                )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        f"Figure 4 companion: time decomposition [scale={bench_scale()}]",
        ["app", "mode", "elapsed ms"] + [b.replace("_", " ") + " %" for b in BUCKETS],
        [
            [r["app"], r["mode"], f"{r['elapsed_ms']:.1f}"]
            + [f"{r[b]:.1f}" for b in BUCKETS]
            for r in rows
        ],
    )
    by_key = {(r["app"], r["mode"]): r for r in rows}
    for name in APP_NAMES:
        unopt, opt = by_key[(name, "unopt")], by_key[(name, "opt")]
        # The optimization exists to eliminate misses: the optimized run's
        # read-miss share must drop and its compute share must rise.
        assert opt["read_miss"] < unopt["read_miss"], name
        assert opt["compute"] > unopt["compute"], name
        # A perfect wire has no recovery time to attribute.
        assert unopt["transport_recovery"] == 0 == opt["transport_recovery"]
