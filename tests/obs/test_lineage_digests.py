"""Every send site's causal lineage, pinned against the parent's traces.

Each cell of :mod:`tests.obs.lineage_digests` must reproduce the Chrome
trace (every event's ``seq`` and ``parent``) and critical path of the
``lineage`` table of :mod:`tests.pins`; a moved lineage edge, an extra or
missing event, or a shifted publish order changes the digest.
"""

import functools

import pytest

from repro.tempest.stats import MsgKind
from tests import pins
from tests.obs import lineage_digests as ld

DIGESTS = pins.stored("lineage")
_cell = functools.lru_cache(maxsize=None)(ld.record)


@pytest.mark.parametrize("cell", list(ld.CELLS))
def test_trace_matches_recorded_digest(cell):
    assert ld.encode(_cell(cell)) == DIGESTS[cell]


def test_cells_reach_every_handler():
    """Every message kind a bus can see is sent somewhere in the table
    (message passing runs without a bus), and combined frames ride it."""
    seen = {
        rec["args"]["msg"]
        for cell in ld.CELLS
        for rec in _cell(cell)["trace"]["traceEvents"]
        if rec.get("args", {}).get("kind") == "msg.send"
    }
    assert {k.value for k in MsgKind} - seen == {MsgKind.MP_DATA.value}
    assert set(DIGESTS) == set(ld.CELLS)
