"""Partial-redundancy elimination of communication (paper Section 4.3).

The paper identifies two PRE-shaped overheads and built neither (it was
"future work... we intend to incorporate PRE based analysis"); this module
implements the data-availability half:

    "If there is no intervening write to the same non-owner read data
    between two loops, it need not be re-communicated at the second loop."

The formulation is the classic *available expressions* lattice specialized
to (receiver, block) facts, evaluated over the program's dynamic phase
sequence (which is static for our programs — the same deferred-evaluation
stance the planner takes):

* a compiler send of block ``b`` to node ``p`` **generates** availability
  of ``(p, b)``;
* any write to ``b`` (by anyone) **kills** ``(*, b)`` except at the writer;
* a send whose blocks are all available is **redundant** — it is dropped,
  and crucially the matching ``implicit_invalidate`` at the receiver is
  suppressed so the copy actually survives to the next loop (the paper's
  point that the optimized scheme would otherwise be *worse* than the
  default protocol on stable data, which never re-fetches an uninvalidated
  block).

At the end of the controlled region every retained block is invalidated so
global consistency is restored before control returns to the default
protocol.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AvailabilityTracker"]


class AvailabilityTracker:
    """Tracks which (receiver, block) pairs hold current pushed copies.

    One boolean row per node over the segment's blocks: a send is a masked
    gather and a scatter, a write is a column kill.
    """

    def __init__(self, n_nodes: int, n_blocks: int) -> None:
        self.n_nodes = n_nodes
        self._avail = np.zeros((n_nodes, n_blocks), dtype=bool)
        self.sends_elided = 0
        self.blocks_elided = 0

    # ------------------------------------------------------------------ #
    def filter_send(self, dst: int, blocks: np.ndarray | list[int]) -> np.ndarray:
        """Drop already-available blocks from a planned send; records the
        remainder as available at ``dst``.  Returns the blocks still to send."""
        blocks = np.asarray(blocks, dtype=np.int64)
        row = self._avail[dst]
        fresh = blocks[~row[blocks]]
        self.blocks_elided += len(blocks) - len(fresh)
        if len(fresh) == 0 and len(blocks) > 0:
            self.sends_elided += 1
        row[fresh] = True
        return fresh

    def note_writes(self, writer: int, blocks: np.ndarray | list[int]) -> None:
        """A write kills availability everywhere except at the writer."""
        blocks = np.asarray(blocks, dtype=np.int64)
        if not len(blocks):
            return
        # Work on the columns the blocks span: one AND per row against a
        # survivor mask costs less than a fancy-indexed store per row.
        lo = blocks.min()
        span = self._avail[:, lo : blocks.max() + 1]
        kept = span[writer].copy()
        survives = np.ones(span.shape[1], dtype=bool)
        survives[blocks - lo] = False
        span &= survives
        span[writer] = kept

    def retained(self, node: int) -> np.ndarray:
        """Sorted blocks node currently keeps under compiler control."""
        return np.flatnonzero(self._avail[node])

    def drop(self, node: int, blocks) -> None:
        """Forget availability of specific blocks at ``node`` (used when a
        retained copy must be invalidated for a demand-read conflict)."""
        self._avail[node, np.asarray(blocks, dtype=np.int64)] = False

    def drain(self, node: int) -> np.ndarray:
        """Region end: all retained blocks at ``node`` (sorted), cleared."""
        blocks = self.retained(node)
        self._avail[node] = False
        return blocks

    def stats(self) -> dict:
        return {
            "sends_elided": self.sends_elided,
            "blocks_elided": self.blocks_elided,
            "live_blocks": int(self._avail.sum()),
        }
