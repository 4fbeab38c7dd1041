"""Ablation — default protocol choice: invalidate vs update vs compiler.

Paper Section 3 analyses the invalidation protocol's producer→consumer
message chain and notes that "general update-based protocols have analogous
problems"; Tempest's premise is that the protocol is replaceable user
code.  This bench runs the suite under three regimes:

* the default **invalidation** protocol (the paper's baseline),
* a **write-update** protocol (sharers are pushed fresh data on every
  write — producer/consumer moves in one data message, but every past
  reader keeps receiving updates),
* the **compiler-optimized** invalidation runs (the paper's contribution).

The headline comparison: the compiler approach achieves the update
protocol's single-message producer→consumer transfers *selectively* —
with bulk payloads and no per-block ack traffic — while keeping
invalidation semantics for everything it cannot analyze.
"""

import pytest

from benchmarks.conftest import (
    APP_NAMES,
    bench_request,
    bench_scale,
    print_table,
    run_cells,
)
from repro.tempest.stats import MsgKind

REGIMES = {"inv": {}, "upd": {"protocol": "update"}, "opt": {"optimize": True}}


def test_ablation_protocol_choice(benchmark):
    def measure():
        cells = run_cells({
            (name, regime): bench_request(name, **options)
            for name in APP_NAMES
            for regime, options in REGIMES.items()
        })
        rows = []
        for name in APP_NAMES:
            inv, upd, opt = (cells[name, regime] for regime in REGIMES)
            rows.append(
                dict(
                    app=name,
                    inv_ms=inv.elapsed_ms,
                    upd_ms=upd.elapsed_ms,
                    opt_ms=opt.elapsed_ms,
                    inv_misses=inv.misses_per_node,
                    upd_misses=upd.misses_per_node,
                    upd_updates=upd.stats.messages_by_kind().get(MsgKind.UPDATE, 0),
                    inv_bytes=inv.stats.total_bytes / 1e6,
                    upd_bytes=upd.stats.total_bytes / 1e6,
                    opt_bytes=opt.stats.total_bytes / 1e6,
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        f"Ablation: default-protocol choice [scale={bench_scale()}]",
        [
            "app", "inv ms", "upd ms", "opt ms",
            "inv miss/nd", "upd miss/nd", "updates", "inv MB", "upd MB", "opt MB",
        ],
        [
            [
                r["app"], f"{r['inv_ms']:.1f}", f"{r['upd_ms']:.1f}", f"{r['opt_ms']:.1f}",
                f"{r['inv_misses']:.0f}", f"{r['upd_misses']:.0f}", r["upd_updates"],
                f"{r['inv_bytes']:.2f}", f"{r['upd_bytes']:.2f}", f"{r['opt_bytes']:.2f}",
            ]
            for r in rows
        ],
    )
    by_app = {r["app"]: r for r in rows}
    for r in rows:
        # Update slashes demand misses on every app (data is pushed).
        assert r["upd_misses"] < r["inv_misses"], r["app"]
    # The stencils: update beats plain invalidation (pure producer-consumer)...
    assert by_app["jacobi"]["upd_ms"] < by_app["jacobi"]["inv_ms"]
    # ...but the compiler run moves fewer bytes than the update protocol on
    # the suite overall: no per-block acks, no updates to the home for
    # private data, bulk payload headers amortized.
    total_upd = sum(r["upd_bytes"] for r in rows)
    total_opt = sum(r["opt_bytes"] for r in rows)
    assert total_opt < total_upd
