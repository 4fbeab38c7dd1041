"""The bitmap availability tracker against the set model it replaced.

``SetTracker`` is the parent implementation of
:class:`repro.core.pre.AvailabilityTracker` — one ``set[int]`` per node —
kept here as the oracle: random call sequences must leave both with the
same answers and the same ``stats()``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pre import AvailabilityTracker

N_NODES = 4
N_BLOCKS = 24


class SetTracker:
    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._avail: list[set[int]] = [set() for _ in range(n_nodes)]
        self.sends_elided = 0
        self.blocks_elided = 0

    def filter_send(self, dst, blocks):
        avail = self._avail[dst]
        fresh = [b for b in blocks if b not in avail]
        self.blocks_elided += len(blocks) - len(fresh)
        if len(fresh) == 0 and len(blocks) > 0:
            self.sends_elided += 1
        avail.update(fresh)
        return fresh

    def note_writes(self, writer, blocks):
        for node in range(self.n_nodes):
            if node != writer:
                self._avail[node] -= set(blocks)

    def retained(self, node):
        return sorted(self._avail[node])

    def drop(self, node, blocks):
        self._avail[node] -= set(blocks)

    def drain(self, node):
        blocks = sorted(self._avail[node])
        self._avail[node].clear()
        return blocks

    def stats(self):
        return {
            "sends_elided": self.sends_elided,
            "blocks_elided": self.blocks_elided,
            "live_blocks": sum(len(s) for s in self._avail),
        }


nodes = st.integers(0, N_NODES - 1)
#: sorted unique ids, as the planner and ``section_blocks`` produce them
block_sets = st.lists(st.integers(0, N_BLOCKS - 1), unique=True, max_size=10).map(sorted)
calls = st.one_of(
    st.tuples(st.just("filter_send"), nodes, block_sets),
    st.tuples(st.just("note_writes"), nodes, block_sets),
    st.tuples(st.just("drop"), nodes, block_sets),
    st.tuples(st.just("drain"), nodes),
    st.tuples(st.just("retained"), nodes),
)


@given(st.lists(calls, max_size=40))
@settings(max_examples=300, deadline=None)
def test_bitmap_tracker_matches_set_model(sequence):
    model = SetTracker(N_NODES)
    tracker = AvailabilityTracker(N_NODES, N_BLOCKS)
    for name, node, *args in sequence:
        want = getattr(model, name)(node, *args)
        got = getattr(tracker, name)(node, *(np.array(a, dtype=np.int64) for a in args))
        if want is not None:
            assert got.dtype == np.int64
            assert got.tolist() == want
        assert tracker.stats() == model.stats()
    for value in tracker.stats().values():
        assert type(value) is int  # plans are pickled: no NumPy scalars
