"""Ablation — advisory primitives for boundary blocks.

Paper Section 4.2: "These boundary cases could also be optimized by
advisory primitives, such as self-invalidate and co-operative prefetch,
and may be a worthwhile optimization where the data set size is small."
The paper left this unexplored; this bench builds it and measures it on
the app the prediction targets (grav, whose small extents make edge
effects dominate) plus the rest of the suite.

Prefetch converts boundary demand misses into overlapped transactions;
self-invalidate spares the producers the invalidation round trips on
their next writes.
"""

import pytest

from benchmarks.conftest import (
    APP_NAMES,
    bench_request,
    bench_scale,
    print_table,
    run_cells,
)


def test_ablation_advisory(benchmark):
    def measure():
        cells = run_cells({
            (name, advisory): bench_request(name, optimize=True, advisory=advisory)
            for name in APP_NAMES
            for advisory in (False, "prefetch", "full")
        })
        rows = []
        for name in APP_NAMES:
            base, pf_only, full = (
                cells[name, advisory] for advisory in (False, "prefetch", "full")
            )
            prefetches = sum(s.prefetches for s in pf_only.stats.nodes)
            rows.append(
                (
                    name,
                    base.misses_per_node,
                    pf_only.misses_per_node,
                    full.misses_per_node,
                    prefetches / len(pf_only.stats.nodes),
                    100 * (1 - pf_only.elapsed_ns / base.elapsed_ns),
                    100 * (1 - full.elapsed_ns / base.elapsed_ns),
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        f"Ablation: advisory primitives on boundary blocks [scale={bench_scale()}]",
        [
            "app", "opt misses/nd", "+prefetch", "+pf+selfinv",
            "prefetch/nd", "pf gain %", "full gain %",
        ],
        [
            [n, f"{b:.0f}", f"{p:.0f}", f"{f:.0f}", f"{pf:.0f}", f"{g1:.1f}", f"{g2:.1f}"]
            for n, b, p, f, pf, g1, g2 in rows
        ],
    )
    by_name = {r[0]: r for r in rows}
    # Measured refinement of the paper's suggestion ("may be a worthwhile
    # optimization where the data set size is small"):
    # 1. prefetch removes a solid share of the boundary demand misses and
    #    never adds any...
    for name, base_m, pf_m, _full_m, pf, g1, _g2 in rows:
        assert pf_m <= base_m + 1, name
    assert by_name["pde"][2] < 0.75 * by_name["pde"][1]
    assert by_name["jacobi"][2] < 0.75 * by_name["jacobi"][1]
    # 2. ...but with demand misses already cheap under the tuned default
    #    protocol, the per-request issue overhead makes it roughly
    #    time-neutral at these scales (within single-digit percent)...
    for name, _b, _p, _f, _pf, g1, _g2 in rows:
        assert -9.0 < g1 < 9.0, (name, g1)
    # 3. ...and self-invalidate on top *loses* on reuse-heavy apps: stable
    #    boundary data gets refetched every loop.
    assert by_name["grav"][6] <= by_name["grav"][5] + 1
    assert by_name["cg"][6] <= by_name["cg"][5] + 1
