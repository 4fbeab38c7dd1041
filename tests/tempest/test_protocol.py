"""Integration tests for the default coherence protocol.

These validate the paper's Figure 1(a) message sequences, state
transitions, eager-write semantics and race serialization.
"""

import pytest

from repro.sim import SimulationError
from repro.tempest import (
    AccessTag,
    Cluster,
    ClusterConfig,
    DirState,
    Distribution,
    HomePolicy,
    SharedMemory,
)
from repro.tempest.stats import COHERENCE_KINDS, MsgKind

from tests.tempest.conftest import make_cluster, run_programs, sharers_of


def one_block_cluster(n_nodes=3, home_policy=HomePolicy.NODE0):
    """Cluster with a single-block-per-column array; returns (cl, block)."""
    cfg = ClusterConfig(n_nodes=n_nodes)
    mem = SharedMemory(cfg, home_policy=home_policy)
    a = mem.alloc("a", (16, n_nodes), Distribution.block(n_nodes))
    cl = Cluster(cfg, mem)
    return cl, a


class TestReadMiss:
    def test_clean_remote_read_is_two_messages(self):
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 0))  # homed at node 0

        def reader():
            yield from cl.read_blocks(1, [b])

        stats = run_programs(cl, n1=reader())
        m = stats.messages_by_kind()
        assert m[MsgKind.READ_REQ] == 1 and m[MsgKind.READ_RESP] == 1
        assert stats[1].read_misses == 1
        assert cl.access.get(1, b) is AccessTag.READONLY
        assert cl.directory.state_of(b) is DirState.SHARED
        assert 1 in sharers_of(cl.directory, b)

    def test_clean_remote_read_latency_93us(self):
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 0))

        def reader():
            yield from cl.read_blocks(1, [b])

        stats = run_programs(cl, n1=reader())
        assert stats.elapsed_ns == pytest.approx(93_000, rel=0.02)

    def test_three_hop_read_from_exclusive_owner(self):
        # Figure 1a: requester -> home -> exclusive owner -> home -> requester
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 1))  # home = node 0

        def writer():
            yield from cl.write_blocks(1, [b], phase=1)
            yield from cl.barrier(1)
            yield from cl.barrier(1)

        def reader():
            yield from cl.barrier(2)
            yield from cl.read_blocks(2, [b])
            yield from cl.barrier(2)

        def home():
            yield from cl.barrier(0)
            yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=writer(), n2=reader())
        m = stats.messages_by_kind()
        assert m[MsgKind.PUT_REQ] == 1 and m[MsgKind.PUT_RESP] == 1
        assert m[MsgKind.READ_REQ] == 1 and m[MsgKind.READ_RESP] == 1
        # After service: owner downgraded, both share, home data current.
        assert cl.access.get(1, b) is AccessTag.READONLY
        assert cl.access.get(2, b) is AccessTag.READONLY
        assert cl.directory.state_of(b) is DirState.SHARED
        assert cl.directory.copy_is_current(0, b)

    def test_home_local_read_recalls_exclusive(self):
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 2))  # home = node 0

        def writer():
            yield from cl.write_blocks(1, [b], phase=1)
            yield from cl.barrier(1)
            yield from cl.barrier(1)

        def home_reads():
            yield from cl.barrier(0)
            yield from cl.read_blocks(0, [b])
            yield from cl.barrier(0)

        def idle2():
            yield from cl.barrier(2)
            yield from cl.barrier(2)

        stats = run_programs(cl, n0=home_reads(), n1=writer(), n2=idle2())
        assert stats[0].read_misses == 1
        assert stats[0].remote_read_misses == 0
        m = stats.messages_by_kind()
        assert m[MsgKind.PUT_REQ] == 1 and m[MsgKind.PUT_RESP] == 1
        assert cl.directory.copy_is_current(0, b)

    def test_read_hit_costs_nothing(self):
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 0))

        def reader():
            yield from cl.read_blocks(1, [b])
            t = cl.engine.now
            yield from cl.read_blocks(1, [b])  # hit
            assert cl.engine.now == t

        stats = run_programs(cl, n1=reader())
        assert stats[1].read_misses == 1


class TestWriteFault:
    def test_write_to_idle_remote_block(self):
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 1))

        def writer():
            yield from cl.write_blocks(1, [b], phase=1)
            assert cl.access.get(1, b) is AccessTag.READWRITE  # eager
            yield from cl.barrier(1)

        def other(n):
            yield from cl.barrier(n)

        stats = run_programs(cl, n0=other(0), n1=writer(), n2=other(2))
        m = stats.messages_by_kind()
        assert m[MsgKind.WRITE_REQ] == 1 and m[MsgKind.GRANT] == 1
        assert cl.directory.state_of(b) is DirState.EXCLUSIVE
        assert cl.directory.owner_of(b) == 1
        # Home's own copy is dead.
        assert cl.access.get(0, b) is AccessTag.INVALID

    def test_write_invalidates_sharers_fig1_count(self):
        # Steady-state producer-consumer: 8 coherence messages per iteration.
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 1))
        iters = 4

        def producer():
            for it in range(1, iters + 1):
                yield from cl.write_blocks(1, [b], phase=it)
                yield from cl.barrier(1)
                yield from cl.barrier(1)

        def consumer():
            for _ in range(iters):
                yield from cl.barrier(2)
                yield from cl.read_blocks(2, [b])
                yield from cl.barrier(2)

        def home():
            for _ in range(iters):
                yield from cl.barrier(0)
                yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=producer(), n2=consumer())
        m = stats.messages_by_kind()
        total = sum(v for k, v in m.items() if k in COHERENCE_KINDS)
        # First iteration is cold (6 msgs: write 2 + read 4); rest are 8.
        assert total == 6 + 8 * (iters - 1)

    def test_eager_write_does_not_block(self):
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 1))

        def writer():
            t0 = cl.engine.now
            yield from cl.write_blocks(1, [b], phase=1)
            # Inline cost only (fault + send overhead), well under a roundtrip.
            assert cl.engine.now - t0 < 20_000
            assert len(cl.nodes[1].pending) == 1
            yield from cl.barrier(1)
            assert len(cl.nodes[1].pending) == 0

        def other(n):
            yield from cl.barrier(n)

        run_programs(cl, n0=other(0), n1=writer(), n2=other(2))

    def test_write_upgrade_from_shared(self):
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 0))

        def reader_then_writer():
            yield from cl.read_blocks(1, [b])
            yield from cl.write_blocks(1, [b], phase=1)
            yield from cl.barrier(1)

        def other_reader():
            yield from cl.read_blocks(2, [b])
            yield from cl.barrier(2)

        def home():
            yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=reader_then_writer(), n2=other_reader())
        assert cl.directory.state_of(b) is DirState.EXCLUSIVE
        assert cl.directory.owner_of(b) == 1
        assert cl.access.get(2, b) is AccessTag.INVALID
        m = stats.messages_by_kind()
        assert m[MsgKind.INV] >= 1 and m[MsgKind.ACK] >= 1

    def test_write_write_race_serializes(self):
        # Two nodes write the same block concurrently; home serializes.
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 0))

        def writer(n):
            yield from cl.write_blocks(n, [b], phase=1)
            yield from cl.barrier(n)

        def home():
            yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=writer(1), n2=writer(2))
        # Exactly one ends up exclusive; the other was invalidated.
        owner = cl.directory.owner_of(b)
        assert owner in (1, 2)
        loser = 3 - owner
        assert cl.directory.state_of(b) is DirState.EXCLUSIVE
        assert cl.access.get(loser, b) is AccessTag.INVALID

    def test_write_recall_from_other_exclusive(self):
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 0))

        def first_writer():
            yield from cl.write_blocks(1, [b], phase=1)
            yield from cl.barrier(1)
            yield from cl.barrier(1)

        def second_writer():
            yield from cl.barrier(2)
            yield from cl.write_blocks(2, [b], phase=2)
            yield from cl.barrier(2)

        def home():
            yield from cl.barrier(0)
            yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=first_writer(), n2=second_writer())
        assert cl.directory.owner_of(b) == 2
        assert cl.access.get(1, b) is AccessTag.INVALID
        m = stats.messages_by_kind()
        assert m[MsgKind.INV] == 1 and m[MsgKind.PUT_RESP] == 1


class TestConsistencyValidation:
    def test_stale_read_without_synchronization_detected(self):
        # A reader that skips the barrier after a remote write trips the
        # stale-copy validator (this is exactly the bug class it exists for).
        cl, a = one_block_cluster()
        b = a.block_of_element((0, 1))

        def reader_then_rereads():
            yield from cl.read_blocks(2, [b])     # gets version 0
            yield from cl.barrier(2)              # writer writes in between
            yield from cl.barrier(2)
            # Reader's tag was invalidated by the protocol, so this is a
            # miss, not a stale hit — the protocol keeps us safe.
            yield from cl.read_blocks(2, [b])

        def writer():
            yield from cl.barrier(1)
            yield from cl.write_blocks(1, [b], phase=1)
            yield from cl.barrier(1)

        def home():
            yield from cl.barrier(0)
            yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=writer(), n2=reader_then_rereads())
        assert stats[2].read_misses == 2  # second read missed again: coherent

    def test_deadlock_detection_surfaces_stuck_nodes(self):
        cl, _ = one_block_cluster()

        def stuck():
            yield from cl.barrier(1)  # nobody else arrives

        with pytest.raises(SimulationError, match="node1"):
            run_programs(cl, n1=stuck())


class TestSingleVsDualCpu:
    def _run(self, dual):
        cfg = ClusterConfig(n_nodes=2, dual_cpu=dual)
        mem = SharedMemory(cfg)
        a = mem.alloc("a", (16, 2), Distribution.block(2))
        cl = Cluster(cfg, mem)
        b = a.block_of_element((0, 0))  # homed at 0

        def reader():
            for _ in range(10):
                yield from cl.read_blocks(1, [b])
                yield from cl.ext.implicit_invalidate(1, [b])

        def home_computes():
            yield from cl.compute(0, 2_000_000)

        stats = run_programs(cl, n0=home_computes(), n1=reader())
        return stats

    def test_single_cpu_is_slower(self):
        dual = self._run(dual=True)
        single = self._run(dual=False)
        assert single.elapsed_ns > dual.elapsed_ns

    def test_single_cpu_steals_compute_time(self):
        # Node 0 computes while serving node 1's misses: on a single CPU
        # the handlers delay the computation's completion.
        single = self._run(dual=False)
        assert single[0].stall_ns > 0
