"""The enumerating section→block mapping, kept as the test oracle.

These are the bodies ``repro.core.blocks`` had before it became an array
kernel: one ``(lo, hi)`` tuple per column and tail index, one ``np.arange``
per run, then ``np.unique``.  Slow and obviously right — the differential
tests in ``test_blocks.py`` hold the closed-form kernel to them element for
element (the role ``tests/heap_engine.py`` plays for the scheduler).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.sections import Section
from repro.tempest.memory import GlobalArray


def section_byte_runs(arr: GlobalArray, sec: Section) -> list[tuple[int, int]]:
    if sec.is_empty:
        return []
    if sec.rank != len(arr.shape):
        raise ValueError(
            f"section rank {sec.rank} vs array {arr.name} rank {len(arr.shape)}"
        )
    item = arr.itemsize
    inner_shape = arr.shape[:-1]

    # Find how many leading dims the section covers fully.
    head = 0
    for (lo, hi), extent in zip(sec.inner, inner_shape):
        if lo == 0 and hi == extent - 1:
            head += 1
        else:
            break

    # Elements in one contiguous run and its offset within a column.
    head_elems = 1
    for extent in inner_shape[:head]:
        head_elems *= extent
    if head < len(inner_shape):
        p_lo, p_hi = sec.inner[head]
        run_elems = head_elems * (p_hi - p_lo + 1)
        run_off = head_elems * p_lo
        tail_dims = sec.inner[head + 1 :]
        tail_extents = inner_shape[head + 1 :]
    else:
        run_elems = head_elems
        run_off = 0
        tail_dims = ()
        tail_extents = ()

    col_elems = arr._col_elems
    cols = list(sec.last)

    # Fast path: full columns, unit stride => one run for all columns.
    full_column = run_elems == col_elems and not tail_dims
    if full_column and sec.last.step == 1 and cols:
        lo_byte = arr.base + cols[0] * col_elems * item
        hi_byte = arr.base + (cols[-1] + 1) * col_elems * item
        return [(lo_byte, hi_byte)]

    # Strides (in elements) of the tail dims within a column.
    tail_strides = []
    stride = head_elems if head == len(inner_shape) else head_elems * inner_shape[head]
    for extent in tail_extents:
        tail_strides.append(stride)
        stride *= extent

    runs: list[tuple[int, int]] = []
    tail_ranges = [range(lo, hi + 1) for lo, hi in tail_dims]
    for j in cols:
        col_base = arr.base + j * col_elems * item
        for combo in itertools.product(*reversed(tail_ranges)) if tail_ranges else [()]:
            off = run_off
            for idx, s in zip(reversed(combo), tail_strides):
                off += idx * s
            lo_byte = col_base + off * item
            runs.append((lo_byte, lo_byte + run_elems * item))
    return runs


def section_blocks(arr: GlobalArray, sec: Section) -> np.ndarray:
    runs = section_byte_runs(arr, sec)
    if not runs:
        return np.empty(0, dtype=np.int64)
    bs = arr.config.block_size
    pieces = [np.arange(lo // bs, (hi - 1) // bs + 1, dtype=np.int64) for lo, hi in runs]
    return np.unique(np.concatenate(pieces))


def shmem_limits(arr: GlobalArray, sec: Section) -> tuple[np.ndarray, np.ndarray]:
    runs = section_byte_runs(arr, sec)
    if not runs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    bs = arr.config.block_size
    inner_pieces = []
    all_pieces = []
    for lo, hi in runs:
        all_pieces.append(np.arange(lo // bs, (hi - 1) // bs + 1, dtype=np.int64))
        first = -(-lo // bs)          # ceil
        last = hi // bs               # exclusive
        if last > first:
            inner_pieces.append(np.arange(first, last, dtype=np.int64))
    touched = np.unique(np.concatenate(all_pieces))
    if inner_pieces:
        inner = np.unique(np.concatenate(inner_pieces))
    else:
        inner = np.empty(0, dtype=np.int64)
    boundary = np.setdiff1d(touched, inner, assume_unique=True)
    return inner, boundary
