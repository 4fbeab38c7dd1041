"""Tests for the advisory primitives: co-operative prefetch & self-invalidate."""

import pytest

from repro.tempest import (
    AccessTag,
    Cluster,
    ClusterConfig,
    DirState,
    Distribution,
    HomePolicy,
    SharedMemory,
)
from repro.tempest.stats import MsgKind
from tests.tempest.conftest import run_programs, sharers_of


def build(n_nodes=2):
    cfg = ClusterConfig(n_nodes=n_nodes)
    mem = SharedMemory(cfg)
    a = mem.alloc("a", (16, 2 * n_nodes), Distribution.block(n_nodes))
    return Cluster(cfg, mem), a


class TestPrefetch:
    def test_prefetch_hides_miss_latency(self):
        cl, a = build()
        b = a.block_of_element((0, 0))  # homed at node 0

        def reader():
            yield from cl.ext.prefetch(1, [b])
            yield from cl.compute(1, 200_000)  # overlap window
            t0 = cl.engine.now
            yield from cl.read_blocks(1, [b])
            return cl.engine.now - t0

        done = cl.engine.spawn(reader())
        cl.engine.run()
        assert done.value == 0  # arrived during the compute
        assert cl.stats[1].prefetches == 1
        assert cl.stats[1].read_misses == 0

    def test_demand_read_waits_on_inflight_prefetch(self):
        cl, a = build()
        b = a.block_of_element((0, 0))

        def reader():
            yield from cl.ext.prefetch(1, [b])
            t0 = cl.engine.now
            yield from cl.read_blocks(1, [b])  # prefetch still in flight
            return cl.engine.now - t0

        done = cl.engine.spawn(reader())
        cl.engine.run()
        assert 0 < done.value < 93_000  # partial overlap, single transaction
        assert cl.stats[1].prefetch_waits == 1
        assert cl.stats[1].read_misses == 0
        # Exactly one read transaction on the wire.
        assert cl.stats.messages_by_kind()[MsgKind.READ_REQ] == 1

    def test_prefetch_of_valid_block_is_noop(self):
        cl, a = build()
        b = a.block_of_element((0, 0))

        def reader():
            yield from cl.read_blocks(1, [b])
            msgs = cl.stats.total_messages
            yield from cl.ext.prefetch(1, [b])
            assert cl.stats.total_messages == msgs

        run_programs(cl, n1=reader())
        assert cl.stats[1].prefetches == 0

    def test_duplicate_prefetch_single_transaction(self):
        cl, a = build()
        b = a.block_of_element((0, 0))

        def reader():
            yield from cl.ext.prefetch(1, [b])
            yield from cl.ext.prefetch(1, [b])
            yield from cl.read_blocks(1, [b])

        run_programs(cl, n1=reader())
        assert cl.stats[1].prefetches == 1
        assert cl.stats.messages_by_kind()[MsgKind.READ_REQ] == 1

    def test_prefetched_data_is_current(self):
        cl, a = build()
        b = a.block_of_element((0, 0))

        def writer():
            yield from cl.write_blocks(0, [b], phase=1)
            yield from cl.barrier(0)
            yield from cl.barrier(0)

        def reader():
            yield from cl.barrier(1)
            yield from cl.ext.prefetch(1, [b])
            yield from cl.compute(1, 500_000)
            yield from cl.read_blocks(1, [b], phase=2)  # validated
            yield from cl.barrier(1)

        run_programs(cl, n0=writer(), n1=reader())
        assert cl.directory.copy_is_current(1, b)


class TestSelfInvalidate:
    def test_drops_copy_and_notifies_home(self):
        cl, a = build()
        b = a.block_of_element((0, 0))

        def reader():
            yield from cl.read_blocks(1, [b])
            assert 1 in sharers_of(cl.directory, b)
            yield from cl.ext.self_invalidate(1, [b])
            assert cl.access.get(1, b) is AccessTag.INVALID

        stats = run_programs(cl, n1=reader())
        assert stats.messages_by_kind()[MsgKind.SELF_INV] == 1
        assert 1 not in sharers_of(cl.directory, b)

    def test_spares_writer_the_invalidation_roundtrip(self):
        def run2(self_inv):
            cl, a = build()
            b = a.block_of_element((0, 0))

            def reader():
                yield from cl.read_blocks(1, [b])
                if self_inv:
                    yield from cl.ext.self_invalidate(1, [b])
                yield from cl.barrier(1)
                yield from cl.barrier(1)

            def writer():
                yield from cl.barrier(0)
                yield from cl.write_blocks(0, [b], phase=1)
                yield from cl.barrier(0)

            stats = cl.run({0: writer(), 1: reader()})
            return stats.messages_by_kind()

        with_si = run2(True)
        without = run2(False)
        assert without[MsgKind.INV] == 1 and without[MsgKind.ACK] == 1
        assert with_si.get(MsgKind.INV, 0) == 0
        assert with_si[MsgKind.SELF_INV] == 1

    def test_ignores_nonreadonly_blocks(self):
        cl, a = build()
        b = a.block_of_element((0, 0))

        def owner():
            # Own block is READWRITE: self-invalidate must not touch it.
            yield from cl.ext.self_invalidate(0, [b])
            assert cl.access.get(0, b) is AccessTag.READWRITE

        run_programs(cl, n0=owner())

    def test_local_home_clears_synchronously(self):
        cl, a = build()
        # Node 0 reads a block homed at node 1 then self-invalidates; the
        # notice crosses the network.  Also test the home's own copy path.
        b1 = a.block_of_element((0, 2))  # homed at node 1

        def reader():
            yield from cl.read_blocks(0, [b1])
            yield from cl.ext.self_invalidate(0, [b1])
            yield from cl.barrier(0)

        def other():
            yield from cl.barrier(1)

        run_programs(cl, n0=reader(), n1=other())
        assert 0 not in sharers_of(cl.directory, b1)


class TestAdvisoryPlanning:
    def test_advisory_reduces_misses_on_edge_heavy_app(self):
        from repro.apps import APPS
        from repro.runtime import run_shmem, run_uniproc

        cfg = ClusterConfig(n_nodes=8)
        prog = APPS["grav"].program()
        base = run_shmem(prog, cfg, optimize=True)
        adv = run_shmem(prog, cfg, optimize=True, advisory="full")
        adv.assert_same_numerics(run_uniproc(prog, cfg))
        assert adv.total_misses < base.total_misses
        assert sum(s.prefetches for s in adv.stats.nodes) > 0

    def test_advisory_requires_optimize(self):
        from repro.apps import APPS
        from repro.runtime import run_shmem

        with pytest.raises(ValueError, match="optimize"):
            run_shmem(APPS["grav"].program(), ClusterConfig(n_nodes=4), advisory="full")

    @pytest.mark.parametrize("mode", ["fulll", True, "on"])
    def test_only_the_three_spellings_are_accepted(self, mode):
        # False, "prefetch" and "full" are the modes; a typo or a bare True
        # used to plan prefetch-only (or full) without a word.
        from repro.apps import APPS
        from repro.runtime import run_shmem
        from repro.serve.request import RunRequest

        with pytest.raises(ValueError, match="advisory"):
            run_shmem(
                APPS["grav"].program(), ClusterConfig(n_nodes=4),
                optimize=True, advisory=mode,
            )
        with pytest.raises(ValueError, match="advisory"):
            RunRequest(app="grav", optimize=True, advisory=mode)
