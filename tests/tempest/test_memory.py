"""Unit tests for the shared segment geometry: distributions, blocks, homes."""

import numpy as np
import pytest

from repro.tempest import ClusterConfig, Distribution, HomePolicy, SharedMemory
from repro.tempest.memory import DistKind


# --------------------------------------------------------------------- #
# distributions
# --------------------------------------------------------------------- #
class TestDistribution:
    def test_block_owner_partitions_contiguously(self):
        d = Distribution.block(4)
        owners = [d.owner(j, 16) for j in range(16)]
        assert owners == [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4

    def test_block_uneven_extent_last_proc_short(self):
        d = Distribution.block(4)
        # extent 10, chunk ceil(10/4)=3: 3,3,3,1
        assert [len(d.owned_indices(p, 10)) for p in range(4)] == [3, 3, 3, 1]

    def test_block_extent_smaller_than_procs(self):
        d = Distribution.block(8)
        # extent 3: procs 0..2 get one each, rest empty
        sizes = [len(d.owned_indices(p, 3)) for p in range(8)]
        assert sizes == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_cyclic_owner_round_robin(self):
        d = Distribution.cyclic(3)
        assert [d.owner(j, 7) for j in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_cyclic_owned_indices(self):
        d = Distribution.cyclic(3)
        assert list(d.owned_indices(1, 10)) == [1, 4, 7]

    def test_owned_indices_cover_exactly_once(self):
        for d in (Distribution.block(5), Distribution.cyclic(5)):
            seen = []
            for p in range(5):
                seen.extend(d.owned_indices(p, 23))
            assert sorted(seen) == list(range(23))

    def test_replicated_has_no_owner(self):
        d = Distribution.replicated(4)
        with pytest.raises(ValueError):
            d.owner(0, 10)
        assert list(d.owned_indices(2, 5)) == [0, 1, 2, 3, 4]

    def test_out_of_range_index_raises(self):
        d = Distribution.block(4)
        with pytest.raises(IndexError):
            d.owner(16, 16)
        with pytest.raises(IndexError):
            d.owned_indices(4, 16)

    def test_zero_procs_rejected(self):
        with pytest.raises(ValueError):
            Distribution(DistKind.BLOCK, 0)


# --------------------------------------------------------------------- #
# array geometry
# --------------------------------------------------------------------- #
class TestGlobalArray:
    @pytest.fixture
    def mem(self):
        return SharedMemory(ClusterConfig(n_nodes=4))

    def test_fortran_element_addressing(self, mem):
        a = mem.alloc("a", (8, 4), Distribution.block(4))
        # column-major: a(i, j) at (i + j*8) * 8 bytes
        assert a.element_byte((0, 0)) == a.base
        assert a.element_byte((1, 0)) == a.base + 8
        assert a.element_byte((0, 1)) == a.base + 8 * 8

    def test_column_is_contiguous(self, mem):
        a = mem.alloc("a", (8, 4), Distribution.block(4))
        lo, hi = a.column_byte_range(2)
        assert lo == a.element_byte((0, 2))
        assert hi - lo == 8 * 8

    def test_3d_addressing(self, mem):
        a = mem.alloc("a", (4, 3, 2), Distribution.block(4))
        # a(i,j,k) at (i + j*4 + k*12) * itemsize
        assert a.element_byte((1, 2, 1)) == a.base + (1 + 8 + 12) * 8

    def test_block_of_element(self, mem):
        a = mem.alloc("a", (16, 4), Distribution.block(4))
        # 128-byte blocks hold 16 doubles: each column is exactly one block
        assert a.block_of_element((0, 0)) == a.base_block
        assert a.block_of_element((15, 0)) == a.base_block
        assert a.block_of_element((0, 1)) == a.base_block + 1

    def test_blocks_covering_vs_within(self, mem):
        a = mem.alloc("a", (16, 4), Distribution.block(4))
        bs = 128
        # A range straddling one block boundary: covering=2, within=0 or 1
        lo = a.base + bs // 2
        hi = lo + bs
        assert len(a.blocks_covering(lo, hi)) == 2
        assert len(a.blocks_within(lo, hi)) == 0
        # Aligned range: equal
        assert list(a.blocks_covering(a.base, a.base + 2 * bs)) == list(
            a.blocks_within(a.base, a.base + 2 * bs)
        )

    def test_blocks_within_empty_for_subblock_range(self, mem):
        a = mem.alloc("a", (16, 4), Distribution.block(4))
        assert len(a.blocks_within(a.base + 8, a.base + 24)) == 0

    def test_blocks_covering_empty_range(self, mem):
        a = mem.alloc("a", (16, 4), Distribution.block(4))
        assert len(a.blocks_covering(a.base, a.base)) == 0

    def test_owner_of_column_follows_distribution(self, mem):
        a = mem.alloc("a", (8, 8), Distribution.cyclic(4))
        assert a.owner_of_column(5) == 1

    def test_index_validation(self, mem):
        a = mem.alloc("a", (8, 4), Distribution.block(4))
        with pytest.raises(IndexError):
            a.element_byte((8, 0))
        with pytest.raises(IndexError):
            a.element_byte((0, 0, 0))
        with pytest.raises(IndexError):
            a.column_byte_range(4)

    def test_bad_shape_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.alloc("bad", (0, 4), Distribution.block(4))

    def test_data_is_fortran_ordered(self, mem):
        a = mem.alloc("a", (8, 4), Distribution.block(4))
        assert a.data.flags["F_CONTIGUOUS"]
        assert a.data.dtype == np.float64


# --------------------------------------------------------------------- #
# segment allocation and homes
# --------------------------------------------------------------------- #
class TestSharedMemory:
    def test_arrays_page_aligned_and_disjoint(self):
        mem = SharedMemory(ClusterConfig(n_nodes=4))
        a = mem.alloc("a", (16, 4), Distribution.block(4))
        b = mem.alloc("b", (100, 7), Distribution.block(4))
        assert a.base % 4096 == 0 and b.base % 4096 == 0
        assert b.base >= a.base + a.nbytes

    def test_duplicate_name_rejected(self):
        mem = SharedMemory(ClusterConfig(n_nodes=4))
        mem.alloc("a", (4, 4), Distribution.block(4))
        with pytest.raises(ValueError):
            mem.alloc("a", (4, 4), Distribution.block(4))

    def test_aligned_homes_follow_owners(self):
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg, home_policy=HomePolicy.ALIGNED)
        # 64x64 doubles: column = 512 B; page = 4096 B = 8 columns.
        # BLOCK dist: proc p owns 16 columns = 2 pages.
        a = mem.alloc("a", (64, 64), Distribution.block(4))
        homes = [mem.home_of_page(p) for p in range(mem.n_pages)]
        assert homes == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_round_robin_homes(self):
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg, home_policy=HomePolicy.ROUND_ROBIN)
        mem.alloc("a", (64, 64), Distribution.block(4))
        homes = [mem.home_of_page(p) for p in range(mem.n_pages)]
        assert homes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_node0_homes(self):
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg, home_policy=HomePolicy.NODE0)
        mem.alloc("a", (64, 64), Distribution.block(4))
        assert all(mem.home_of_page(p) == 0 for p in range(mem.n_pages))

    def test_home_of_block_consistent_with_page(self):
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg)
        mem.alloc("a", (64, 64), Distribution.block(4))
        bpp = cfg.blocks_per_page
        for page in range(mem.n_pages):
            for b in (page * bpp, (page + 1) * bpp - 1):
                assert mem.home_of_block(b) == mem.home_of_page(page)

    def test_home_of_block_out_of_segment_raises(self):
        mem = SharedMemory(ClusterConfig(n_nodes=4))
        mem.alloc("a", (16, 4), Distribution.block(4))
        with pytest.raises(IndexError):
            mem.home_of_block(mem.n_blocks)

    def test_array_of_block(self):
        mem = SharedMemory(ClusterConfig(n_nodes=4))
        a = mem.alloc("a", (16, 4), Distribution.block(4))
        b = mem.alloc("b", (16, 4), Distribution.block(4))
        assert mem.array_of_block(a.base_block) is a
        assert mem.array_of_block(b.base_block) is b
        # padding blocks past array payload belong to nothing
        assert mem.array_of_block(a.base_block + a.n_blocks) is None

    def test_total_bytes(self):
        mem = SharedMemory(ClusterConfig(n_nodes=4))
        mem.alloc("a", (16, 4), Distribution.block(4))
        mem.alloc("b", (8, 2), Distribution.block(4))
        assert mem.total_bytes() == 16 * 4 * 8 + 8 * 2 * 8

    def test_owned_blocks_partition_uniform_array(self):
        # Columns aligned to blocks: every block has a unique owner.
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg)
        a = mem.alloc("a", (16, 8), Distribution.block(4))  # col == 1 block
        all_owned = []
        for p in range(4):
            owned = a.owned_blocks(p)
            assert len(owned) == 2
            all_owned.extend(owned)
        assert sorted(all_owned) == list(a.block_range())

    @pytest.mark.parametrize("dist", [Distribution.block(4), Distribution.cyclic(4)])
    def test_owned_blocks_follow_first_byte_on_unaligned_columns(self, dist):
        # 20 doubles per column = 160 bytes: blocks straddle columns, and
        # the second array starts mid-segment.
        mem = SharedMemory(ClusterConfig(n_nodes=4))
        mem.alloc("pad", (8, 3), Distribution.block(4))
        a = mem.alloc("a", (20, 7), dist)
        for p in range(4):
            want = [
                b
                for b in a.block_range()
                if a.owner_of_column(min((b * 128 - a.base) // 160, a.extent - 1)) == p
            ]
            assert a.owned_blocks(p) == want
            assert all(type(b) is int for b in a.owned_blocks(p))
        assert mem.alloc("r", (4, 4), Distribution.replicated(4)).owned_blocks(0) == []
