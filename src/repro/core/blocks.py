"""Mapping array sections to cache blocks; the ``shmem_limits`` subsetting.

The multi-word-block problem (paper Section 3): a block can straddle array
elements with different owners or outside the analyzed section, so the
compiler may only take a block under explicit control when the section
*fully covers* it.  Given section ``a(m:n)``, ``shmem_limits`` selects the
subset ``a(m_l:n_l)`` whose endpoints "fall within closest fitting block
boundaries"; the leftover boundary blocks stay with the default protocol.
For 2-D sections the subsetting happens per column ("we have to do this
subsetting by iterating over the higher dimension").

This module turns concrete :class:`~repro.core.sections.Section` objects
into sorted block-id arrays against a :class:`GlobalArray`'s geometry:

``section_blocks``     all blocks touched (what accesses actually hit)
``shmem_limits``       (controllable, boundary) block split
``BlockMemo``          both, once per distinct ``(array, Section)``
"""

from __future__ import annotations

import numpy as np

from repro.core.sections import Section
from repro.tempest.memory import GlobalArray

__all__ = ["BlockMemo", "section_blocks", "shmem_limits"]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _run_bounds(arr: GlobalArray, sec: Section) -> tuple[np.ndarray, np.ndarray]:
    """Byte bounds ``lo``/``hi`` of every maximal contiguous run, ascending.

    Exploits Fortran layout: a run is a full prefix of inner dimensions ×
    a contiguous range in the first partial dimension; the run starts are
    the outer sum of the last-dimension columns and the remaining (tail)
    inner dimensions, first tail dimension fastest — which is address
    order, so the runs come out ascending and pairwise disjoint without a
    sort.  Whole-column sections over consecutive columns are one run.
    """
    if sec.is_empty:
        return _EMPTY, _EMPTY
    if sec.rank != len(arr.shape):
        raise ValueError(
            f"section rank {sec.rank} vs array {arr.name} rank {len(arr.shape)}"
        )
    item = arr.itemsize
    inner_shape = arr.shape[:-1]

    # Leading dims the section covers fully, and the elements they span.
    head = 0
    head_elems = 1
    for (lo, hi), extent in zip(sec.inner, inner_shape):
        if lo != 0 or hi != extent - 1:
            break
        head += 1
        head_elems *= extent

    col_bytes = arr._col_elems * item
    last = sec.last
    origin = arr.base
    run_bytes = col_bytes
    tails = None
    if head == len(inner_shape):
        if last.step == 1:
            # Full columns, unit stride: one run for all columns.
            lo = np.array([origin + last.lo * col_bytes], dtype=np.int64)
            return lo, lo + len(last) * col_bytes
    else:
        p_lo, p_hi = sec.inner[head]
        stride = head_elems * item
        run_bytes = stride * (p_hi - p_lo + 1)
        origin += stride * p_lo
        stride *= inner_shape[head]
        for (t_lo, t_hi), extent in zip(sec.inner[head + 1 :], inner_shape[head + 1 :]):
            steps = np.arange(t_lo * stride, (t_hi + 1) * stride, stride, dtype=np.int64)
            tails = steps if tails is None else (steps[:, None] + tails).ravel()
            stride *= extent

    lo = np.arange(
        origin + last.lo * col_bytes,
        origin + (last.hi + 1) * col_bytes,
        last.step * col_bytes,
        dtype=np.int64,
    )
    if tails is not None:
        lo = (lo[:, None] + tails).ravel()
    return lo, lo + run_bytes


def _expand(first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(first[i], stop[i])``; empty ranges allowed."""
    if len(first) == 1:
        return np.arange(first[0], stop[0], dtype=np.int64)
    counts = stop - first
    np.maximum(counts, 0, out=counts)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if total == 0:
        return _EMPTY
    # Each output slot holds its range's (first - slots before the range)
    # plus its own position.
    out = np.repeat(first - (ends - counts), counts)
    out += np.arange(total, dtype=np.int64)
    return out


def _touched(lo: np.ndarray, hi: np.ndarray, bs: int) -> np.ndarray:
    """Sorted unique blocks overlapping the ascending disjoint byte runs.

    Runs ascend and do not overlap in bytes, so two runs can share a block
    only at a seam — the last block of one run being the first of later
    ones.  Clipping each run's first block to the previous run's stop
    therefore yields strictly increasing ids with no sort and no dedup.
    """
    first = lo // bs
    stop = (hi - 1) // bs + 1
    if len(first) > 1:
        np.maximum(first[1:], stop[:-1], out=first[1:])
    return _expand(first, stop)


def section_blocks(arr: GlobalArray, sec: Section) -> np.ndarray:
    """Sorted unique ids of every block the section touches."""
    lo, hi = _run_bounds(arr, sec)
    if not len(lo):
        return _EMPTY
    return _touched(lo, hi, arr.config.block_size)


def shmem_limits(arr: GlobalArray, sec: Section) -> tuple[np.ndarray, np.ndarray]:
    """Split a section's blocks into (compiler-controllable, boundary).

    A block is controllable when one contiguous run fully covers it (the
    paper's per-run subsetting); every other touched block is a boundary
    block left to the default protocol.  A fully covered block belongs to
    exactly one run (runs are disjoint in bytes), so the per-run inner
    ranges never overlap and need no clipping.
    """
    lo, hi = _run_bounds(arr, sec)
    if not len(lo):
        return _EMPTY, _EMPTY
    bs = arr.config.block_size
    touched = _touched(lo, hi, bs)
    inner = _expand(-(-lo // bs), hi // bs)
    if not len(inner):
        return inner, touched
    edge = np.ones(len(touched), dtype=bool)
    edge[np.searchsorted(touched, inner)] = False
    return inner, touched[edge]


def _frozen(blocks: np.ndarray) -> np.ndarray:
    blocks.flags.writeable = False
    return blocks


class BlockMemo:
    """:func:`section_blocks` and :func:`shmem_limits`, each computed once
    per distinct ``(array name, Section)``.

    Equal sections recur within one phase: every reader of lu's pivot
    column holds its own equal ``Section`` of it.  Scope a memo to one
    phase record: a build-wide one would pin every block array of the run.
    The arrays are shared between callers, so they are read-only.
    """

    __slots__ = ("arrays", "_blocks", "_limits")

    def __init__(self, arrays: dict[str, GlobalArray]) -> None:
        self.arrays = arrays
        self._blocks: dict[tuple[str, Section], np.ndarray] = {}
        self._limits: dict[tuple[str, Section], tuple[np.ndarray, np.ndarray]] = {}

    def blocks(self, name: str, sec: Section) -> np.ndarray:
        key = (name, sec)
        hit = self._blocks.get(key)
        if hit is None:
            hit = self._blocks[key] = _frozen(section_blocks(self.arrays[name], sec))
        return hit

    def limits(self, name: str, sec: Section) -> tuple[np.ndarray, np.ndarray]:
        key = (name, sec)
        hit = self._limits.get(key)
        if hit is None:
            inner, edge = shmem_limits(self.arrays[name], sec)
            hit = self._limits[key] = (_frozen(inner), _frozen(edge))
        return hit
