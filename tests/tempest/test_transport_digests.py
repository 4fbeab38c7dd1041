"""The reliable transport's schedule, pinned across the fault-config space.

Each sampled config of :mod:`tests.tempest.transport_digests` must replay
to exactly the schedule digest recorded before the transport's per-frame
path was rewritten: same engine events at the same instants, same RNG
draws deciding the same fates, same counters.
"""

import pytest

from tests.tempest import transport_digests as td


def test_sample_spans_every_axis():
    """The seeded sample engages each axis the digests are meant to pin."""
    cells = td.CONFIGS
    faults = [c["faults"] for c in cells]
    seen = {
        "drop": any(f.drop_prob for f in faults),
        "dup": any(f.dup_prob for f in faults),
        "jitter": any(f.jitter_ns for f in faults),
        "stall": any(f.stall_prob for f in faults),
        "link override": any(f.link_faults for f in faults),
        "healing partition": any(p.heals for f in faults for p in f.partitions),
        "permanent partition": any(
            not p.heals for f in faults for p in f.partitions
        ),
        "crash + checkpoints": any(f.crashes and f.checkpoint_every for f in faults),
        "adaptive rto": any(f.adaptive_rto for f in faults),
        "combining": any("combine" in c for c in cells),
        "switch": any("switch" in c for c in cells),
    }
    assert [axis for axis, hit in seen.items() if not hit] == []
    assert set(td.DIGESTS) == set(range(td.N_CONFIGS))


@pytest.mark.parametrize("index", range(td.N_CONFIGS))
def test_schedule_matches_recorded_digest(index):
    result = td.run_config(td.CONFIGS[index])
    assert td.schedule_digest(result) == td.DIGESTS[index]
