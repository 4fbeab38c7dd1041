"""Tests for section→block mapping and the shmem_limits subsetting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockMemo, _run_bounds, section_blocks, shmem_limits
from repro.core.sections import Section, StridedInterval
from repro.tempest import ClusterConfig, Distribution, SharedMemory
from repro.tempest.memory import GlobalArray
from tests.core import blocks_oracle


#: an empty rank-2 section
EMPTY_2D = Section(((0, -1),), StridedInterval.empty())


def section_byte_runs(arr: GlobalArray, sec: Section) -> list[tuple[int, int]]:
    """The kernel's maximal contiguous byte runs ``[lo, hi)``, as pairs."""
    lo, hi = _run_bounds(arr, sec)
    return list(zip(lo.tolist(), hi.tolist()))


def make_array(shape, block_size=128, n_nodes=4):
    cfg = ClusterConfig(n_nodes=n_nodes, block_size=block_size)
    mem = SharedMemory(cfg)
    return mem.alloc("a", shape, Distribution.block(n_nodes))


class TestByteRuns:
    def test_1d_contiguous_single_run(self):
        a = make_array((64,))
        runs = section_byte_runs(a, Section((), StridedInterval(8, 23)))
        assert runs == [(a.base + 64, a.base + 192)]

    def test_1d_strided_runs_per_element(self):
        a = make_array((64,))
        runs = section_byte_runs(a, Section((), StridedInterval(0, 8, 4)))
        assert runs == [
            (a.base, a.base + 8),
            (a.base + 32, a.base + 40),
            (a.base + 64, a.base + 72),
        ]

    def test_2d_full_columns_merge(self):
        a = make_array((16, 8))
        # Full columns 2..5, unit stride: one big run.
        sec = Section(((0, 15),), StridedInterval(2, 5))
        runs = section_byte_runs(a, sec)
        assert runs == [(a.base + 2 * 128, a.base + 6 * 128)]

    def test_2d_partial_rows_one_run_per_column(self):
        a = make_array((16, 8))
        sec = Section(((1, 14),), StridedInterval(2, 3))
        runs = section_byte_runs(a, sec)
        assert runs == [
            (a.base + 2 * 128 + 8, a.base + 2 * 128 + 120),
            (a.base + 3 * 128 + 8, a.base + 3 * 128 + 120),
        ]

    def test_3d_interior_runs(self):
        a = make_array((4, 4, 2))
        # interior rows 1..2, middle 1..2, column 0
        sec = Section(((1, 2), (1, 2)), StridedInterval(0, 0))
        runs = section_byte_runs(a, sec)
        # 2 middle planes x (rows 1..2) = 2 runs of 16 bytes each.
        assert runs == [
            (a.base + (1 + 4) * 8, a.base + (3 + 4) * 8),
            (a.base + (1 + 8) * 8, a.base + (3 + 8) * 8),
        ]

    def test_3d_full_inner_merges_across_column(self):
        a = make_array((4, 4, 4))
        sec = Section(((0, 3), (0, 3)), StridedInterval(1, 2))
        runs = section_byte_runs(a, sec)
        assert runs == [(a.base + 16 * 8, a.base + 48 * 8)]

    def test_empty_section_no_runs(self):
        a = make_array((16, 8))
        assert section_byte_runs(a, EMPTY_2D) == []

    def test_rank_mismatch_rejected(self):
        a = make_array((16, 8))
        with pytest.raises(ValueError, match="rank"):
            section_byte_runs(a, Section((), StridedInterval(0, 3)))


class TestSectionBlocks:
    def test_aligned_columns_map_to_blocks(self):
        a = make_array((16, 8))  # one column == one 128B block
        sec = Section(((0, 15),), StridedInterval(2, 4))
        got = section_blocks(a, sec)
        np.testing.assert_array_equal(got, [a.base_block + 2, a.base_block + 3, a.base_block + 4])

    def test_partial_column_still_touches_block(self):
        a = make_array((16, 8))
        sec = Section(((5, 9),), StridedInterval(2, 2))
        np.testing.assert_array_equal(section_blocks(a, sec), [a.base_block + 2])

    def test_unaligned_columns_share_blocks(self):
        # 20 doubles per column = 160 bytes: columns straddle 128B blocks.
        a = make_array((20, 4))
        sec = Section(((0, 19),), StridedInterval(1, 1))
        # Column 1 = bytes 160..320 => blocks 1 and 2.
        np.testing.assert_array_equal(
            section_blocks(a, sec), [a.base_block + 1, a.base_block + 2]
        )

    def test_deduplication_across_runs(self):
        a = make_array((4, 8))  # 32-byte columns, 4 per block
        sec = Section(((0, 3),), StridedInterval(0, 3))
        np.testing.assert_array_equal(section_blocks(a, sec), [a.base_block])


class TestShmemLimits:
    def test_aligned_section_fully_controllable(self):
        a = make_array((16, 8))
        sec = Section(((0, 15),), StridedInterval(2, 5))
        inner, boundary = shmem_limits(a, sec)
        assert len(inner) == 4 and len(boundary) == 0

    def test_partial_column_all_boundary(self):
        a = make_array((16, 8))
        sec = Section(((3, 12),), StridedInterval(2, 2))  # 80 bytes mid-block
        inner, boundary = shmem_limits(a, sec)
        assert len(inner) == 0
        np.testing.assert_array_equal(boundary, [a.base_block + 2])

    def test_straddling_section_trims_to_block_boundaries(self):
        # Paper's example: a(m:n) -> subset a(m_l:n_l) on block boundaries.
        a = make_array((64,))  # 16 doubles per block
        sec = Section((), StridedInterval(5, 40))
        inner, boundary = shmem_limits(a, sec)
        # bytes 40..328: full blocks are 1 (128..256); partial: 0 and 2.
        np.testing.assert_array_equal(inner, [a.base_block + 1])
        np.testing.assert_array_equal(boundary, [a.base_block, a.base_block + 2])

    def test_unaligned_columns_boundary_blocks_exact(self):
        a = make_array((20, 4))
        sec = Section(((0, 19),), StridedInterval(1, 1))  # bytes 160..320
        inner, boundary = shmem_limits(a, sec)
        # ceil(160/128)=2; 320//128=2 => no fully-contained block.
        assert len(inner) == 0
        np.testing.assert_array_equal(boundary, [a.base_block + 1, a.base_block + 2])

    def test_inner_plus_boundary_equals_touched(self):
        a = make_array((20, 8))
        sec = Section(((0, 19),), StridedInterval(1, 6))
        inner, boundary = shmem_limits(a, sec)
        touched = section_blocks(a, sec)
        np.testing.assert_array_equal(np.union1d(inner, boundary), touched)
        assert len(np.intersect1d(inner, boundary)) == 0

    @given(
        rows=st.integers(1, 40),
        col_lo=st.integers(0, 7),
        width=st.integers(0, 7),
        row_lo=st.integers(0, 39),
        row_hi=st.integers(0, 39),
    )
    @settings(max_examples=100)
    def test_property_partition_and_containment(self, rows, col_lo, width, row_lo, row_hi):
        a = make_array((40, 8), block_size=64)
        sec = Section(
            ((min(row_lo, rows - 1), min(row_hi, rows - 1)),),
            StridedInterval(col_lo, min(col_lo + width, 7)),
        )
        inner, boundary = shmem_limits(a, sec)
        touched = section_blocks(a, sec)
        # Partition property.
        np.testing.assert_array_equal(np.union1d(inner, boundary), touched)
        assert len(np.intersect1d(inner, boundary)) == 0
        # Containment: every inner block's bytes lie inside some run.
        runs = section_byte_runs(a, sec)
        for b in inner:
            lo, hi = b * 64, (b + 1) * 64
            assert any(rlo <= lo and hi <= rhi for rlo, rhi in runs)


@st.composite
def array_and_section(draw):
    """A rank 1-4 array at an arbitrary 8-byte-aligned base and a section
    of it: strided last dimension, partial or full inner dimensions (so
    the merged-prefix path and one or two tail dimensions are drawn)."""
    block_size = draw(st.sampled_from([32, 64, 128, 256]))
    rank = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 12 if rank < 4 else 6)) for _ in range(rank))
    cfg = ClusterConfig(n_nodes=4, block_size=block_size, page_size=1024)
    base = 8 * draw(st.integers(0, 64))
    arr = GlobalArray("a", shape, np.dtype(np.float64), Distribution.block(4), base, cfg)
    inner = []
    for extent in shape[:-1]:
        if draw(st.booleans()):
            inner.append((0, extent - 1))
        else:
            lo = draw(st.integers(0, extent - 1))
            inner.append((lo, draw(st.integers(lo, extent - 1))))
    lo = draw(st.integers(0, shape[-1] - 1))
    last = StridedInterval(
        lo, draw(st.integers(lo, shape[-1] - 1)), draw(st.integers(1, 4))
    )
    return arr, Section(tuple(inner), last)


class TestKernelAgainstOracle:
    """The closed-form kernel ≡ the per-column enumeration it replaced."""

    @given(array_and_section())
    @settings(max_examples=400, deadline=None)
    def test_runs_blocks_and_limits_match(self, case):
        arr, sec = case
        assert section_byte_runs(arr, sec) == blocks_oracle.section_byte_runs(arr, sec)

        touched = section_blocks(arr, sec)
        assert touched.dtype == np.int64
        np.testing.assert_array_equal(touched, blocks_oracle.section_blocks(arr, sec))
        assert np.all(np.diff(touched) > 0)

        inner, boundary = shmem_limits(arr, sec)
        want_inner, want_boundary = blocks_oracle.shmem_limits(arr, sec)
        assert inner.dtype == boundary.dtype == np.int64
        np.testing.assert_array_equal(inner, want_inner)
        np.testing.assert_array_equal(boundary, want_boundary)
        assert np.all(np.diff(inner) > 0) and np.all(np.diff(boundary) > 0)
        np.testing.assert_array_equal(np.union1d(inner, boundary), touched)
        assert len(np.intersect1d(inner, boundary)) == 0

    def test_many_runs_inside_one_block(self):
        # 8-byte runs 32 bytes apart: four runs share each 128-byte block,
        # so every run after the first clips to an empty range.
        a = make_array((4, 16))
        sec = Section(((1, 1),), StridedInterval(0, 15))
        np.testing.assert_array_equal(
            section_blocks(a, sec), blocks_oracle.section_blocks(a, sec)
        )
        assert len(section_blocks(a, sec)) == 4

    def test_empty_section(self):
        a = make_array((16, 8))
        assert len(section_blocks(a, EMPTY_2D)) == 0
        inner, boundary = shmem_limits(a, EMPTY_2D)
        assert len(inner) == 0 and len(boundary) == 0


class TestBlockMemo:
    def memo(self):
        a = make_array((16, 8))
        return BlockMemo({"a": a}), a

    def test_equal_sections_map_once(self):
        memo, a = self.memo()
        sec = Section(((1, 14),), StridedInterval(2, 5))
        twin = Section(((1, 14),), StridedInterval(2, 5))
        assert memo.blocks("a", sec) is memo.blocks("a", twin)
        assert memo.limits("a", sec) is memo.limits("a", twin)
        np.testing.assert_array_equal(memo.blocks("a", sec), section_blocks(a, sec))
        for got, want in zip(memo.limits("a", sec), shmem_limits(a, sec)):
            np.testing.assert_array_equal(got, want)

    def test_memoized_arrays_are_read_only(self):
        memo, _ = self.memo()
        for sec in (
            Section(((0, 15),), StridedInterval(2, 5)),
            Section(((1, 14),), StridedInterval(0, 7, 3)),
            EMPTY_2D,
        ):
            arrays = (memo.blocks("a", sec), *memo.limits("a", sec))
            for blocks in arrays:
                assert not blocks.flags.writeable
                with pytest.raises(ValueError):
                    blocks[:1] = 0
