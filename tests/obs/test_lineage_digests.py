"""Every send site's causal lineage, pinned against the parent's traces.

Each cell of :mod:`tests.obs.lineage_digests` must reproduce the Chrome
trace (every event's ``seq`` and ``parent``) and critical path recorded
before the handlers became bound methods; a moved lineage edge, an extra
or missing event, or a shifted publish order changes the digest.
"""

import functools

import pytest

from repro.tempest.stats import MsgKind
from tests.obs import lineage_digests as ld
from tests.obs.attribution_matrix import digest


@functools.lru_cache(maxsize=None)
def _cell(cell: str):
    result, exporter = ld.run_cell(cell)
    return result, exporter.to_chrome()


@pytest.mark.parametrize("cell", list(ld.CELLS))
def test_trace_matches_recorded_digest(cell):
    result, trace = _cell(cell)
    assert result.completed
    assert digest([trace, result.critical_path]) == ld.DIGESTS[cell]


def test_cells_reach_every_handler():
    """Every message kind a bus can see is sent somewhere in the table
    (message passing runs without a bus), and combined frames ride it."""
    seen = {
        rec["args"]["msg"]
        for cell in ld.CELLS
        for rec in _cell(cell)[1]["traceEvents"]
        if rec.get("args", {}).get("kind") == "msg.send"
    }
    assert {k.value for k in MsgKind} - seen == {MsgKind.MP_DATA.value}
    assert set(ld.DIGESTS) == set(ld.CELLS)
