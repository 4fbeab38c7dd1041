"""Home-node directory state, one entry per block.

A block's directory entry lives at its *home* node and records which nodes
hold copies:

``IDLE``       only the home's own memory holds the data
``SHARED``     one or more read-only copies exist (sharer bitmask)
``EXCLUSIVE``  exactly one node holds a writable copy (the data at the home
               may be stale)

The directory also carries the *version* machinery used to validate
coherence: ``global_version[b]`` is the logical timestamp (phase number) of
the last write to block ``b``, and ``copy_version[n, b]`` is the timestamp
of the data node ``n`` last received.  A read of a block whose copy version
lags the global version is a **stale read** — the invariant the compiler /
protocol contract must never break.  The clocks are 32-bit: a write at a
phase past ``MAX_PHASE`` is refused (:class:`PhaseOverflowError`) rather
than wrapped.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np

__all__ = ["MAX_PHASE", "DirState", "Directory", "PhaseOverflowError", "StaleReadError"]

#: the version clocks' dtype, and the last phase it can record
_CLOCK = np.int32
MAX_PHASE = int(np.iinfo(_CLOCK).max)


class StaleReadError(AssertionError):
    """A node observed an out-of-date copy — a protocol/contract bug."""


class PhaseOverflowError(OverflowError):
    """A write's phase does not fit the 32-bit version clocks."""


class DirState(enum.IntEnum):
    IDLE = 0
    SHARED = 1
    EXCLUSIVE = 2


#: Module-level int constants for hot-path comparisons (no enum boxing).
_IDLE = int(DirState.IDLE)
_SHARED = int(DirState.SHARED)
_EXCLUSIVE = int(DirState.EXCLUSIVE)


class Directory:
    """Dense directory + version tracker for the whole segment.

    Storage: the protocol-scalar fields (``state``/``owner``/``sharers``)
    are plain Python containers — a ``bytearray`` and two lists — because
    protocol handlers touch them one block at a time, where NumPy scalar
    indexing plus integer boxing costs several times a native list access.
    The version vectors stay NumPy (int32, 4 B per node and block): every
    consumer (bulk validation, ``record_write``, the auditor) operates on
    whole index arrays.
    """

    def __init__(self, n_nodes: int, n_blocks: int, homes: Sequence[int]) -> None:
        if len(homes) != n_blocks:
            raise ValueError("homes must give one home per block")
        self.n_nodes = n_nodes
        self.n_blocks = n_blocks
        self.home = np.asarray(homes, dtype=np.int32)
        #: per-block home as a Python list (home_of is a hot O(1) lookup)
        self._home = self.home.tolist()
        self.state = bytearray(n_blocks)
        self.owner: list[int] = [-1] * n_blocks
        self.sharers: list[int] = [0] * n_blocks  # bitmask per block
        self.global_version = np.zeros(n_blocks, dtype=_CLOCK)
        # Version each block held before the current phase's write bumped it
        # (used to tolerate legal same-phase read/write overlap in
        # INDEPENDENT loops — the reader may see the pre-phase value).
        self.prev_version = np.zeros(n_blocks, dtype=_CLOCK)
        self.copy_version = np.zeros((n_nodes, n_blocks), dtype=_CLOCK)

    def snapshot(self) -> dict[str, object]:
        """The checkpoint cut: a copy of every field, by name."""
        return {
            "state": self.state.copy(),
            "owner": self.owner.copy(),
            "sharers": self.sharers.copy(),
            "global_version": self.global_version.copy(),
            "prev_version": self.prev_version.copy(),
            "copy_version": self.copy_version.copy(),
        }

    def restore(self, cut: dict[str, object]) -> None:
        """Write every field of ``cut`` back in place."""
        for name, saved in cut.items():
            getattr(self, name)[:] = saved

    # ------------------------------------------------------------------ #
    # state queries
    # ------------------------------------------------------------------ #
    def state_of(self, block: int) -> DirState:
        return DirState(self.state[block])

    def owner_of(self, block: int) -> int:
        return int(self.owner[block])

    def home_of(self, block: int) -> int:
        return self._home[block]

    # ------------------------------------------------------------------ #
    # state transitions (called by protocol handlers)
    # ------------------------------------------------------------------ #
    def add_sharer(self, block: int, node: int) -> None:
        self.sharers[block] = int(self.sharers[block]) | (1 << node)
        self.state[block] = _SHARED
        self.owner[block] = -1

    def set_exclusive(self, block: int, node: int) -> None:
        self.state[block] = _EXCLUSIVE
        self.owner[block] = node
        self.sharers[block] = 0

    def clear_sharer(self, block: int, node: int) -> None:
        mask = int(self.sharers[block]) & ~(1 << node)
        self.sharers[block] = mask
        if mask == 0 and self.state[block] == _SHARED:
            self.state[block] = _IDLE

    # ------------------------------------------------------------------ #
    # versions
    # ------------------------------------------------------------------ #
    def record_write(self, node: int, blocks: Iterable[int] | range, phase: int) -> None:
        """Mark ``blocks`` as written by ``node`` at logical time ``phase``.

        The writer's own copy becomes current.
        """
        if phase > MAX_PHASE:
            raise PhaseOverflowError(
                f"phase {phase} does not fit the version clocks (at most {MAX_PHASE})"
            )
        idx = _as_index(blocks)
        if idx is None:
            return
        bumped = self.global_version[idx] < phase
        bump_idx = idx[bumped]
        self.prev_version[bump_idx] = self.global_version[bump_idx]
        self.global_version[bump_idx] = phase
        self.copy_version[node][idx] = self.global_version[idx]

    def deliver_copy(self, node: int, blocks: Iterable[int] | range) -> None:
        """Node received the current data for ``blocks``."""
        idx = _as_index(blocks)
        if idx is None:
            return
        self.copy_version[node][idx] = self.global_version[idx]

    def deliver_copy_one(self, node: int, block: int) -> None:
        """Single-block :meth:`deliver_copy` without index-array overhead.

        Protocol handlers deliver one block per message; building an
        ``np.arange`` for every message dominates the cost of the update
        itself.
        """
        self.copy_version[node, block] = self.global_version[block]

    def copy_is_current(self, node: int, block: int) -> bool:
        return self.copy_version[node, block] >= self.global_version[block]

    def validate_reads_bulk(
        self,
        node: int,
        blocks: Iterable[int],
        context: str = "",
        phase: int | None = None,
    ) -> None:
        """Raise :class:`StaleReadError` if ``node`` would read stale data.

        ``phase`` is the reader's current phase: a block written in the
        *same* phase is legal to read at its pre-phase version (INDEPENDENT
        loop semantics — readers see the old value).
        """
        idx = _as_index(blocks)
        if idx is None:
            return
        c = self.copy_version[node][idx]
        g = self.global_version[idx]
        ok = c >= g
        if phase is not None:
            ok |= (g == phase) & (c >= self.prev_version[idx])
        if not ok.all():
            bad = idx[~ok][:5].tolist()
            raise StaleReadError(
                f"node {node} stale read of blocks {bad}..." + (f" ({context})" if context else "")
            )


def _as_index(blocks: Iterable[int] | range) -> np.ndarray | None:
    if isinstance(blocks, np.ndarray):
        return blocks.astype(np.intp, copy=False) if blocks.size else None
    if isinstance(blocks, range):
        if len(blocks) == 0:
            return None
        return np.arange(blocks.start, blocks.stop, blocks.step, dtype=np.intp)
    idx = np.fromiter(blocks, dtype=np.intp)
    return idx if idx.size else None
