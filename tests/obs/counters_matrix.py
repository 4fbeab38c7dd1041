"""The cell table the counter declarations are tested over.

The ten cells of :mod:`tests.obs.attribution_matrix` plus two that only
matter to counters: ``advisory+switch`` (co-operative prefetch through
the shared switch — the one cell where ``NodeStats.prefetches`` and a
port depth above 1 are nonzero) and ``degraded`` (node 1 cut off for
good: channels give up, the run ends ``completed=False``).  The
``counters`` table of :mod:`tests.pins` pins, per cell, a type-strict
sha256 of everything ``ClusterStats`` aggregates (:func:`aggregates`):
``summary()``, the five ``*_summary()`` dicts, every ``total_*``, the
two by-kind ``Counter``s and ``max_port_depth``.
"""

from __future__ import annotations

from collections import Counter

from repro.tempest.config import SwitchConfig
from repro.tempest.faults import FaultConfig, PartitionScenario
from tests.obs.attribution_matrix import CELLS as ATTRIBUTION_CELLS
from tests.obs.attribution_matrix import digest, run_cell

#: run_cell kwargs on top of the attribution matrix's "clean" cell
EXTRA_CELLS = {
    "advisory+switch": {
        "n": 64,
        "optimize": True,
        "advisory": "full",
        "switch": SwitchConfig(enabled=True),
    },
    "degraded": {
        "faults": FaultConfig(
            partitions=(PartitionScenario("cut", frozenset({1}), t_start_ns=200_000),),
            max_retries=6,
        ),
    },
}
CELLS = (*ATTRIBUTION_CELLS, *EXTRA_CELLS)

TOTALS = (
    "total_misses",
    "total_messages",
    "total_bytes",
    "total_drops",
    "total_dups",
    "total_retransmits",
    "total_backoffs",
    "total_spurious_retransmits",
    "total_gave_up",
    "total_msgs_combined",
    "total_combine_flushes",
    "total_switch_frames",
    "total_switch_wait_ns",
)

def run_counters_cell(cell: str, **kwargs):
    """One cell, unprofiled (time attribution does not move a counter)."""
    name, extra = (cell, {}) if cell in ATTRIBUTION_CELLS else ("clean", EXTRA_CELLS[cell])
    opts = {"profile_phases": False, "critical_path": False, **extra, **kwargs}
    return run_cell(name, **opts)


def aggregates(stats) -> dict:
    """Every aggregate ``ClusterStats`` offers, plus the per-kind sum of the
    nodes' ``msgs_combined``, JSON-shaped (insertion order of the by-kind
    ``Counter``s included)."""

    def by_kind(counts):
        return {kind.value: n for kind, n in counts.items()}

    combined: Counter = Counter()  # node order: the digest pins insertion order
    for node in stats.nodes:
        combined.update(node.msgs_combined)

    return {
        "summary": stats.summary(),
        "reliability": stats.reliability_summary(),
        "combining": stats.combining_summary(),
        "switch": stats.switch_summary(),
        "recovery": stats.recovery_summary(),
        "engine": stats.engine_summary(),
        "totals": {name: getattr(stats, name) for name in TOTALS},
        "messages_by_kind": by_kind(stats.messages_by_kind()),
        "msgs_combined_by_kind": by_kind(combined),
        "max_port_depth": stats.max_port_depth,
    }


def record(cell: str) -> dict:
    r = run_counters_cell(cell)
    assert r.completed == (cell != "degraded"), cell
    return aggregates(r.stats)
