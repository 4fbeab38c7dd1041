"""The fault bench's bulk stream drives the reliable transport through the
active-message convention (``handler(*args, seq)``).  ``bulk_stream_run``
itself asserts exactly-once, in-order delivery; here the timers' claims
are pinned on the 2048-byte payload, whose ack round trip overruns the
fixed 120 us timer."""

import pytest

from benchmarks.bench_ablation_faults import STREAM_FRAMES, bulk_stream_run
from repro.tempest import MsgKind


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
def test_bulk_stream_delivers_every_frame_once_in_order(adaptive):
    stats = bulk_stream_run(2048, adaptive=adaptive)
    assert stats.messages_by_kind()[MsgKind.DATA] == STREAM_FRAMES
    rel = stats.reliability_summary()
    if adaptive:
        assert rel["spurious_retransmits"] == rel["retransmits"] == 0
    else:
        assert rel["spurious_retransmits"] == STREAM_FRAMES
