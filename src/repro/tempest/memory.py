"""The global shared address space: arrays, pages, blocks, homes, owners.

Layout model
------------
The cluster exports one shared segment.  Each global (HPF-distributed) array
is allocated at a page-aligned base address; addresses are byte offsets into
the segment.  Coherence operates on fixed-size *blocks* (default 128 bytes);
pages are the unit of home assignment (the *home* node holds the directory
entry for every block in the page).

Arrays use Fortran (column-major) element order, matching HPF: for a 2-D
array ``a(n0, n1)``, element ``a(i, j)`` lives at byte
``base + (i + j * n0) * itemsize``.  Distributing the **last** dimension
(the paper's simplifying assumption) therefore distributes whole columns,
which are contiguous — the property the compiler's contiguity analysis
relies on.

Owner vs. home
--------------
The *owner* of an element is the processor it logically resides on per the
HPF distribution.  The *home* of a block is where its directory lives.  The
two coincide under the default ``HomePolicy.ALIGNED`` but the paper is
explicit that they need not (Section 4.2 step 1 exists exactly because of
this), so ``HomePolicy.ROUND_ROBIN`` and ``HomePolicy.NODE0`` are provided
to exercise the three-hop protocol paths.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.tempest.config import ClusterConfig

__all__ = [
    "Distribution",
    "DistKind",
    "GlobalArray",
    "HomePolicy",
    "SharedMemory",
]


class DistKind(enum.Enum):
    """How the last dimension is spread over the processor line."""

    BLOCK = "block"
    CYCLIC = "cyclic"
    REPLICATED = "replicated"  # every processor owns the whole array


@dataclass(frozen=True)
class Distribution:
    """HPF distribution of an array's last dimension over ``n_procs``.

    ``BLOCK``  : processor ``p`` owns the contiguous chunk
                 ``[p*ceil(E/P), min((p+1)*ceil(E/P), E))``.
    ``CYCLIC`` : processor ``p`` owns indices ``p, p+P, p+2P, ...``.
    ``REPLICATED`` : no distribution; every node owns a private full copy
                 (used for small coefficient arrays and reduction scratch).
    """

    kind: DistKind
    n_procs: int

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("distribution needs at least one processor")

    @staticmethod
    def block(n_procs: int) -> "Distribution":
        return Distribution(DistKind.BLOCK, n_procs)

    @staticmethod
    def cyclic(n_procs: int) -> "Distribution":
        return Distribution(DistKind.CYCLIC, n_procs)

    @staticmethod
    def replicated(n_procs: int) -> "Distribution":
        return Distribution(DistKind.REPLICATED, n_procs)

    def chunk(self, extent: int) -> int:
        """BLOCK distribution chunk size for a dimension of ``extent``."""
        return math.ceil(extent / self.n_procs)

    def owner(self, index: int, extent: int) -> int:
        """Owning processor of last-dimension ``index`` (0-based)."""
        if not 0 <= index < extent:
            raise IndexError(f"index {index} outside [0, {extent})")
        if self.kind is DistKind.BLOCK:
            return min(index // self.chunk(extent), self.n_procs - 1)
        if self.kind is DistKind.CYCLIC:
            return index % self.n_procs
        raise ValueError("replicated arrays have no single owner")

    def owned_indices(self, proc: int, extent: int) -> range:
        """Last-dimension indices owned by ``proc`` as a range object."""
        if not 0 <= proc < self.n_procs:
            raise IndexError(f"processor {proc} outside [0, {self.n_procs})")
        if self.kind is DistKind.BLOCK:
            c = self.chunk(extent)
            lo = min(proc * c, extent)
            hi = min(lo + c, extent)
            return range(lo, hi)
        if self.kind is DistKind.CYCLIC:
            return range(proc, extent, self.n_procs)
        return range(0, extent)


class HomePolicy(enum.Enum):
    ALIGNED = "aligned"          # home = owner of the page's first element
    ROUND_ROBIN = "round_robin"  # home = page_index % n_nodes
    NODE0 = "node0"              # everything homed at node 0 (stress test)


class GlobalArray:
    """A distributed array living in the shared segment.

    Holds the address geometry used by the coherence model, and the single
    NumPy backing store real numerics run against.  The store is allocated
    on first use of :attr:`data`: the functional pass asks for it, the
    timing pass (which moves block ids, never values) does not.
    """

    __slots__ = (
        "name",
        "shape",
        "dtype",
        "dist",
        "base",
        "nbytes",
        "_data",
        "itemsize",
        "_col_elems",
        "config",
        "base_block",
        "n_blocks",
    )

    def __init__(
        self,
        name: str,
        shape: Sequence[int],
        dtype: np.dtype,
        dist: Distribution,
        base: int,
        config: ClusterConfig,
    ) -> None:
        if not shape or any(s <= 0 for s in shape):
            raise ValueError(f"bad shape {shape!r} for array {name!r}")
        self.name = name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.dist = dist
        self.base = base
        self.itemsize = self.dtype.itemsize
        self._data: np.ndarray | None = None
        self.nbytes = math.prod(self.shape) * self.itemsize
        # Number of elements in one "column" (all dims but the last).
        self._col_elems = 1
        for s in self.shape[:-1]:
            self._col_elems *= s
        self.config = config
        self.base_block = base // config.block_size
        self.n_blocks = math.ceil(self.nbytes / config.block_size)

    @property
    def data(self) -> np.ndarray:
        """The backing store: zeroed, Fortran-ordered, allocated on demand."""
        if self._data is None:
            self._data = np.zeros(self.shape, dtype=self.dtype, order="F")
        return self._data

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def extent(self) -> int:
        """Extent of the distributed (last) dimension."""
        return self.shape[-1]

    def owner_of_column(self, j: int) -> int:
        return self.dist.owner(j, self.extent)

    def element_byte(self, index: Sequence[int]) -> int:
        """Global byte address of an element (Fortran order)."""
        if len(index) != len(self.shape):
            raise IndexError(f"rank mismatch: {index} vs shape {self.shape}")
        offset = 0
        stride = 1
        for i, n in zip(index, self.shape):
            if not 0 <= i < n:
                raise IndexError(f"index {index} outside shape {self.shape}")
            offset += i * stride
            stride *= n
        return self.base + offset * self.itemsize

    def block_of_element(self, index: Sequence[int]) -> int:
        return self.element_byte(index) // self.config.block_size

    def block_range(self) -> range:
        return range(self.base_block, self.base_block + self.n_blocks)

    def owners_of_blocks(self, blocks) -> "np.ndarray":
        """Vectorized designated owner per block: the owner of the block's
        first element (clamped into the array).  Used by the planner to
        assign a single sender to blocks that straddle ownership
        boundaries — after ``mk_writable`` that sender holds the merged
        current copy (paper Section 4.2 step 1)."""
        import numpy as np

        blocks = np.asarray(blocks, dtype=np.int64)
        byte = blocks * self.config.block_size - self.base
        byte = np.minimum(np.maximum(byte, 0), self.nbytes - 1)
        # byte is inside the array, so col is inside [0, extent)
        col = byte // (self._col_elems * self.itemsize)
        if self.dist.kind is DistKind.BLOCK:
            chunk = self.dist.chunk(self.extent)
            return np.minimum(col // chunk, self.dist.n_procs - 1)
        if self.dist.kind is DistKind.CYCLIC:
            return col % self.dist.n_procs
        raise ValueError("replicated arrays have no owners")

    def single_owner_blocks(self, blocks) -> "np.ndarray":
        """Boolean mask: True where every element in the block has one
        owner.  Run-time overhead elimination is only legal for such
        blocks — a multi-owner block's designated sender cannot keep the
        exclusive ownership the rt-elim scheme assumes."""
        import numpy as np

        blocks = np.asarray(blocks, dtype=np.int64)
        bs = self.config.block_size
        top = self.nbytes - 1
        first = np.minimum(np.maximum(blocks * bs - self.base, 0), top)
        last = np.minimum(np.maximum((blocks + 1) * bs - 1 - self.base, 0), top)
        # Both bytes are inside the array, so both columns are in range.
        colbytes = self._col_elems * self.itemsize
        col_first = first // colbytes
        col_last = last // colbytes
        if self.dist.kind is DistKind.BLOCK:
            # Ownership is monotone in the column index, so checking the
            # block's first and last columns suffices.
            chunk = self.dist.chunk(self.extent)
            return np.minimum(col_first // chunk, self.dist.n_procs - 1) == np.minimum(
                col_last // chunk, self.dist.n_procs - 1
            )
        if self.dist.kind is DistKind.CYCLIC:
            # Consecutive columns alternate owners, so a block is
            # single-owner only when it lies within one column (or there is
            # a single processor).
            if self.dist.n_procs == 1:
                return np.ones(len(blocks), dtype=bool)
            return col_first == col_last
        raise ValueError("replicated arrays have no owners")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GlobalArray({self.name!r}, shape={self.shape}, "
            f"dist={self.dist.kind.value}, base={self.base:#x})"
        )


class SharedMemory:
    """Allocator and geometry oracle for the shared segment."""

    def __init__(
        self, config: ClusterConfig, home_policy: HomePolicy = HomePolicy.ALIGNED
    ) -> None:
        self.config = config
        self.home_policy = home_policy
        self.arrays: dict[str, GlobalArray] = {}
        self._next_base = 0
        self._page_homes: list[int] = []

    # ------------------------------------------------------------------ #
    def alloc(
        self,
        name: str,
        shape: Sequence[int],
        dist: Distribution,
    ) -> GlobalArray:
        """Allocate a page-aligned float64 distributed array."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already allocated")
        arr = GlobalArray(name, shape, np.dtype(np.float64), dist, self._next_base, self.config)
        self.arrays[name] = arr
        pages = math.ceil(arr.nbytes / self.config.page_size)
        self._page_homes.extend(self._homes_for_pages(arr, pages).tolist())
        self._next_base += pages * self.config.page_size
        return arr

    def _homes_for_pages(self, arr: GlobalArray, pages: int) -> np.ndarray:
        """Home node of each of ``arr``'s pages, the segment's next ones."""
        n_nodes = self.config.n_nodes
        if self.home_policy is HomePolicy.NODE0:
            return np.zeros(pages, dtype=np.int64)
        if (
            self.home_policy is HomePolicy.ROUND_ROBIN
            or arr.dist.kind is DistKind.REPLICATED
        ):
            return (len(self._page_homes) + np.arange(pages)) % n_nodes
        # ALIGNED: home the page with the owner of its first element (the
        # first element of the page's first block, arrays being page-aligned).
        firsts = arr.base_block + np.arange(pages) * self.config.blocks_per_page
        return arr.owners_of_blocks(firsts) % n_nodes

    # ------------------------------------------------------------------ #
    @property
    def n_pages(self) -> int:
        return len(self._page_homes)

    @property
    def n_blocks(self) -> int:
        return self.n_pages * self.config.blocks_per_page

    def total_bytes(self) -> int:
        """Sum of array payloads (not counting page padding)."""
        return sum(a.nbytes for a in self.arrays.values())

    def checkpoint_bytes(self) -> int:
        """Modeled size of one barrier-consistent checkpoint.

        One current copy of every shared block (the segment payload), plus
        per-block recovery metadata: the directory entry (state, owner,
        sharer bitmask, versions — modeled at 32 bytes) and one access tag
        byte per node per block.  Page padding is not written.
        """
        data = self.total_bytes()
        directory_meta = self.n_blocks * 32
        tag_meta = self.n_blocks * self.config.n_nodes
        return data + directory_meta + tag_meta
