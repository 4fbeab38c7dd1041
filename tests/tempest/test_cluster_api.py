"""Direct tests of the Cluster facade."""

import pytest

from repro.tempest import Cluster, ClusterConfig, Distribution, SharedMemory


def build(n_nodes=2, **cfg_kw):
    cfg = ClusterConfig(n_nodes=n_nodes, **cfg_kw)
    mem = SharedMemory(cfg)
    arr = mem.alloc("a", (16, n_nodes * 2), Distribution.block(n_nodes))
    return Cluster(cfg, mem), arr


class TestConstruction:
    def test_config_mismatch_rejected(self):
        cfg_a = ClusterConfig(n_nodes=2)
        cfg_b = ClusterConfig(n_nodes=4)
        mem = SharedMemory(cfg_a)
        mem.alloc("a", (16, 2), Distribution.block(2))
        with pytest.raises(ValueError, match="different config"):
            Cluster(cfg_b, mem)

    def test_equal_config_values_accepted(self):
        # A distinct-but-equal config object is fine (frozen dataclass eq).
        cfg_a = ClusterConfig(n_nodes=2)
        cfg_b = ClusterConfig(n_nodes=2)
        mem = SharedMemory(cfg_a)
        mem.alloc("a", (16, 2), Distribution.block(2))
        Cluster(cfg_b, mem)

    def test_initial_tags_follow_homes(self):
        cl, arr = build()
        from repro.tempest import AccessTag

        for b in arr.block_range():
            home = cl.directory.home_of(b)
            assert cl.access.get(home, b) is AccessTag.READWRITE
            for n in range(cl.n_nodes):
                if n != home:
                    assert cl.access.get(n, b) is AccessTag.INVALID


class TestRunValidation:
    def test_missing_program_rejected(self):
        cl, _ = build()

        def prog():
            return
            yield

        with pytest.raises(ValueError, match="one program per node"):
            cl.run({0: prog()})

    def test_extra_program_rejected(self):
        cl, _ = build()

        def prog():
            return
            yield

        with pytest.raises(ValueError, match="one program per node"):
            cl.run({0: prog(), 1: prog(), 2: prog()})

    def test_elapsed_recorded(self):
        cl, _ = build()

        def prog(n):
            yield from cl.compute(n, 123_000)

        stats = cl.run({0: prog(0), 1: prog(1)})
        assert stats.elapsed_ns == 123_000


class TestFragments:
    def test_empty_reads_and_writes_are_noops(self):
        cl, _ = build()

        def prog():
            yield from cl.read_blocks(0, [])
            yield from cl.write_blocks(0, [], phase=1)
            return cl.engine.now

        done = cl.engine.spawn(prog())
        cl.engine.run()
        assert done.value == 0
        assert cl.stats.total_messages == 0

    def test_read_accepts_numpy_and_lists(self):
        import numpy as np

        cl, arr = build()
        b = arr.base_block

        def prog():
            yield from cl.read_blocks(1, np.asarray([b]))
            yield from cl.read_blocks(1, [b])  # hit, list form

        stats = cl.engine.spawn(prog())
        cl.engine.run()
        assert cl.stats[1].read_misses == 1

    def test_write_to_own_homed_block_is_free(self):
        cl, arr = build()
        b = arr.base_block
        home = cl.directory.home_of(b)

        def prog():
            yield from cl.write_blocks(home, [b], phase=1)

        cl.engine.spawn(prog())
        cl.engine.run()
        assert cl.stats.total_messages == 0
        assert cl.stats[home].write_faults == 0
