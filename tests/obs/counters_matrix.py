"""The cell table the counter declarations are tested over.

The ten cells of :mod:`tests.obs.attribution_matrix` plus two that only
matter to counters: ``advisory+switch`` (co-operative prefetch through
the shared switch — the one cell where ``NodeStats.prefetches`` and a
port depth above 1 are nonzero) and ``degraded`` (node 1 cut off for
good: channels give up, the run ends ``completed=False``).  ``DIGESTS``
pins, per cell, a type-strict sha256 of everything ``ClusterStats``
aggregates — ``summary()``, the five ``*_summary()`` dicts, every
``total_*``, the two by-kind ``Counter``s and ``max_port_depth`` — as
the *parent* of PR 17 (commit f896316: thirteen hand-written ``total_*``
properties, five hand-written summary dicts) produced them, recorded with

    PYTHONPATH=<parent>/src:. python -m tests.obs.counters_matrix

before ``tempest/stats.py`` was touched.  Run the same command on any
later commit to print the table it produces now.
"""

from __future__ import annotations

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

#: cell -> sha256(aggregates(stats)) on the parent.
DIGESTS: dict[str, str] = {
    "clean": "9ab10bd489a98e6c0e33ce8ce67e25bfb999b6ff66dc235e05ac6f934bd506da",
    "opt": "c83a68be29273d7691ac4f0d8576ed45d24a23caac218e35832592d938f98e63",
    "storm": "210d55bf073303f9902ff4a6ed1da9fe894cbe1f91b00f741e4327e8ff02d844",
    "combine": "9f19f9d86d9496e395a5b4f93ff830b96a394ad4f49dcd11126bae1f82d77f2b",
    "switch": "221c25870d1a1f9f4cd8efa893c9d8a44c14b17e014e5789ff3a398b25d80766",
    "storm+combine+switch": "2ff3a112f98220f0a7cc39996ec576b1dd80271989a3af82fc6babedbaa36572",
    "healed-partition": "30ff74b46db83909fbddbda6deaaf884edd61fb5569c8c765a7738e7cf2cc298",
    "crash+rollback": "606700929200d595f5302bd280f28781c6ca88027aa221e53d756051628efa2d",
    "crash-in-partition": "762708c207106f0bf75beaa46e66562f8163a1c2bf108e7e54079c970d44f9fd",
    "crash-after-heal": "ec16f05f2858e96c5a497ad30585aeb2064ea5d8bf3f4b44411feff38667802d",
    "advisory+switch": "1696225c28b103839b0e5c6fc4aef4e1a722e9416757948fc69e8351ef7aff0d",
    "degraded": "3a0068d64778765d96b12f73a99881df13be5f677eb4558b79b7f6751118eaf6",
}


def run_counters_cell(cell: str, **kwargs):
    """One cell, unprofiled (time attribution does not move a counter)."""
    name, extra = (cell, {}) if cell in ATTRIBUTION_CELLS else ("clean", EXTRA_CELLS[cell])
    opts = {"profile_phases": False, "critical_path": False, **extra, **kwargs}
    return run_cell(name, **opts)


def aggregates(stats) -> dict:
    """Every aggregate ``ClusterStats`` offers, JSON-shaped (insertion
    order of the by-kind ``Counter``s included)."""

    def by_kind(counts):
        return {kind.value: n for kind, n in counts.items()}

    return {
        "summary": stats.summary(),
        "reliability": stats.reliability_summary(),
        "combining": stats.combining_summary(),
        "switch": stats.switch_summary(),
        "recovery": stats.recovery_summary(),
        "engine": stats.engine_summary(),
        "totals": {name: getattr(stats, name) for name in TOTALS},
        "messages_by_kind": by_kind(stats.messages_by_kind()),
        "msgs_combined_by_kind": by_kind(stats.msgs_combined_by_kind()),
        "max_port_depth": stats.max_port_depth,
    }


if __name__ == "__main__":
    print("DIGESTS: dict[str, str] = {")
    for name in CELLS:
        r = run_counters_cell(name)
        assert r.completed == (name != "degraded"), name
        print(f'    "{name}": "{digest(aggregates(r.stats))}",')
    print("}")
