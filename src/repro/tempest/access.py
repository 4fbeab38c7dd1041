"""Fine-grain access control: per-node, per-block access tags.

Tempest's defining feature is that every shared-memory access is checked
against a per-block tag (``Invalid`` / ``ReadOnly`` / ``ReadWrite``); an
access that the tag does not permit traps to a user-level handler.  The
simulation keeps one dense ``uint8`` tag vector per node — O(1) lookup and
cheap bulk updates for the compiler-control primitives that flip whole
ranges at once (``implicit_writable``, ``implicit_invalidate``).

Storage layout: the tag table is one flat ``bytearray`` with a writable
2-D NumPy view (``_tags``) on top.  Bulk operations (range flips, fancy
indexing, snapshot/restore) go through the view at full NumPy speed; the
per-access hot path (``readable``/``writable``/``set`` on a single block)
indexes the bytearray directly, which costs ~5× less than a NumPy scalar
access plus enum boxing.  Both aliases address the same bytes, so either
side always observes the other's writes.
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

__all__ = ["AccessTag", "AccessControl"]


class AccessTag(enum.IntEnum):
    INVALID = 0
    READONLY = 1
    READWRITE = 2


#: Module-level int constants for hot-path comparisons (no enum boxing).
_INVALID = int(AccessTag.INVALID)
_READONLY = int(AccessTag.READONLY)
_READWRITE = int(AccessTag.READWRITE)


class AccessControl:
    """Tag tables for all nodes over the whole shared segment.

    Besides the tag itself, each (node, block) slot carries an *implicit*
    bit: set when the current tag was granted by a compiler-control
    primitive (``implicit_writable``) behind the directory's back, clear
    when the tag reflects a directory transaction.  The coherence auditor
    uses it to tell protocol-owned copies (which must match the directory
    and be version-current) from compiler-controlled ones (whose safety the
    contract checker enforces instead).
    """

    __slots__ = ("n_nodes", "n_blocks", "_tag_buf", "_imp_buf",
                 "_tags", "_implicit", "rows")

    def __init__(self, n_nodes: int, n_blocks: int) -> None:
        if n_nodes < 1 or n_blocks < 0:
            raise ValueError("bad access-control dimensions")
        self.n_nodes = n_nodes
        self.n_blocks = n_blocks
        # Flat byte storage + 2-D views; see the module docstring.
        self._tag_buf = bytearray(n_nodes * n_blocks)
        self._imp_buf = bytearray(n_nodes * n_blocks)
        self._tags = np.frombuffer(self._tag_buf, dtype=np.uint8).reshape(
            n_nodes, n_blocks
        )
        self._implicit = np.frombuffer(self._imp_buf, dtype=np.bool_).reshape(
            n_nodes, n_blocks
        )
        #: per-node row views, precomputed so hot bulk paths skip the
        #: 2-D __getitem__ allocation on every call
        self.rows = [self._tags[n] for n in range(n_nodes)]

    # ------------------------------------------------------------------ #
    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """The checkpoint cut: copies of the tags and the implicit bits."""
        return self._tags.copy(), self._implicit.copy()

    def restore(self, cut: tuple[np.ndarray, np.ndarray]) -> None:
        tags, implicit = cut
        self._tags[:] = tags
        self._implicit[:] = implicit

    def get(self, node: int, block: int) -> AccessTag:
        return AccessTag(self._tag_buf[node * self.n_blocks + block])

    def set(
        self, node: int, block: int, tag: AccessTag, implicit: bool = False
    ) -> None:
        i = node * self.n_blocks + block
        self._tag_buf[i] = tag
        self._imp_buf[i] = 1 if (implicit and tag != _INVALID) else 0

    def set_range(
        self,
        node: int,
        blocks: Sequence[int] | range,
        tag: AccessTag,
        implicit: bool = False,
    ) -> None:
        """Bulk tag update; `blocks` may be a range or an index list."""
        flag = implicit and tag is not AccessTag.INVALID
        if isinstance(blocks, range):
            sl = slice(blocks.start, blocks.stop, blocks.step)
            row = self.rows[node]
            row[sl] = int(tag)
            self._implicit[node, sl] = flag
        else:
            idx = np.asarray(blocks, dtype=np.intp)
            if idx.size:
                self.rows[node][idx] = int(tag)
                self._implicit[node, idx] = flag

    def readable(self, node: int, block: int) -> bool:
        return self._tag_buf[node * self.n_blocks + block] >= _READONLY

    def writable(self, node: int, block: int) -> bool:
        return self._tag_buf[node * self.n_blocks + block] == _READWRITE
