"""Unit tests for the shared segment geometry: distributions, blocks, homes."""

import numpy as np
import pytest

from repro.core.blocks import section_blocks, shmem_limits
from repro.core.sections import Section, StridedInterval
from repro.tempest import Cluster, ClusterConfig, Distribution, HomePolicy, SharedMemory
from repro.tempest.access import AccessTag
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
        lo, last = a.element_byte((0, 2)), a.element_byte((7, 2))
        assert last - lo == 7 * 8
        assert a.element_byte((0, 3)) == lo + 8 * 8

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

    # Which blocks a section covers vs which it fully contains: the
    # geometry under the paper's shmem_limits subsetting.
    def test_blocks_covering_vs_within(self, mem):
        a = mem.alloc("a", (32, 4), Distribution.block(4))  # a column = 2 blocks
        # bytes [64, 192) of column 0 straddle one block boundary
        straddle = Section(((8, 23),), StridedInterval(0, 0))
        assert len(section_blocks(a, straddle)) == 2
        inner, boundary = shmem_limits(a, straddle)
        assert len(inner) == 0 and len(boundary) == 2
        # an aligned range: every covered block is fully contained
        aligned = Section(((0, 31),), StridedInterval(0, 1))
        inner, boundary = shmem_limits(a, aligned)
        assert inner.tolist() == section_blocks(a, aligned).tolist()
        assert len(boundary) == 0

    def test_blocks_within_empty_for_subblock_range(self, mem):
        a = mem.alloc("a", (16, 4), Distribution.block(4))
        inner, _ = shmem_limits(a, Section(((1, 2),), StridedInterval(0, 0)))
        assert len(inner) == 0

    def test_blocks_covering_empty_range(self, mem):
        a = mem.alloc("a", (16, 4), Distribution.block(4))
        assert len(section_blocks(a, Section(((0, -1),), StridedInterval.empty()))) == 0

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
            a.element_byte((0, 4))

    def test_bad_shape_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.alloc("bad", (0, 4), Distribution.block(4))


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
        homes = mem._page_homes
        assert homes == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_round_robin_homes(self):
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg, home_policy=HomePolicy.ROUND_ROBIN)
        mem.alloc("a", (64, 64), Distribution.block(4))
        homes = mem._page_homes
        assert homes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_node0_homes(self):
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg, home_policy=HomePolicy.NODE0)
        mem.alloc("a", (64, 64), Distribution.block(4))
        assert set(mem._page_homes) == {0}

    def test_home_of_block_consistent_with_page(self):
        # The cluster's directory homes every block of a page at the page's home.
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg)
        mem.alloc("a", (64, 64), Distribution.block(4))
        directory = Cluster(cfg, mem).directory
        bpp = cfg.blocks_per_page
        for page, home in enumerate(mem._page_homes):
            for b in (page * bpp, (page + 1) * bpp - 1):
                assert directory.home_of(b) == home

    @pytest.mark.parametrize("policy", list(HomePolicy))
    def test_page_homes_follow_the_per_page_rule(self, policy):
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg, home_policy=policy)
        # Odd column sizes put page starts mid-column; BLOCK over 3 and
        # CYCLIC over 8 processors differ from the node count.
        arrays = [
            mem.alloc("blk", (100, 37), Distribution.block(4)),
            mem.alloc("cyc", (96, 29), Distribution.cyclic(4)),
            mem.alloc("rep", (64, 40), Distribution.replicated(4)),
            mem.alloc("blk3", (50, 61), Distribution.block(3)),
            mem.alloc("cyc8", (16, 1000), Distribution.cyclic(8)),
        ]

        def rule(arr, page_in_array, page_index):
            if policy is HomePolicy.ROUND_ROBIN:
                return page_index % cfg.n_nodes
            if policy is HomePolicy.NODE0:
                return 0
            if arr.dist.kind is DistKind.REPLICATED:
                return page_index % cfg.n_nodes
            col = page_in_array * cfg.page_size // (arr.nbytes // arr.extent)
            return arr.dist.owner(min(col, arr.extent - 1), arr.extent) % cfg.n_nodes

        want = [
            rule(arr, p, arr.base // cfg.page_size + p)
            for arr in arrays
            for p in range(-(-arr.nbytes // cfg.page_size))
        ]
        assert mem._page_homes == want
        # The cluster homes each block at its page's home, writable there only.
        cluster = Cluster(cfg, mem)
        homes = np.repeat(want, cfg.blocks_per_page)
        assert cluster.directory._home == homes.tolist()
        for node in range(cfg.n_nodes):
            writable = cluster.access.rows[node] == AccessTag.READWRITE
            np.testing.assert_array_equal(writable, homes == node)
            assert not cluster.access._implicit[node].any()

    def test_home_of_block_out_of_segment_raises(self):
        cfg = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg)
        mem.alloc("a", (16, 4), Distribution.block(4))
        with pytest.raises(IndexError):
            Cluster(cfg, mem).directory.home_of(mem.n_blocks)

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
        owners = a.owners_of_blocks(list(a.block_range()))
        assert owners.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("dist", [Distribution.block(4), Distribution.cyclic(4)])
    def test_owned_blocks_follow_first_byte_on_unaligned_columns(self, dist):
        # 20 doubles per column = 160 bytes: blocks straddle columns, and
        # the second array starts mid-segment.
        mem = SharedMemory(ClusterConfig(n_nodes=4))
        mem.alloc("pad", (8, 3), Distribution.block(4))
        a = mem.alloc("a", (20, 7), dist)
        blocks = list(a.block_range())
        want = [
            a.owner_of_column(min((b * 128 - a.base) // 160, a.extent - 1))
            for b in blocks
        ]
        assert a.owners_of_blocks(blocks).tolist() == want
        with pytest.raises(ValueError, match="replicated"):
            mem.alloc("r", (4, 4), Distribution.replicated(4)).owners_of_blocks(blocks)
