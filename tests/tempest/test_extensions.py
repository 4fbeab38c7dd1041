"""Tests for the compiler-control primitives and their contract checks."""

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
from repro.tempest.extensions import ContractViolation, coalesce_runs
from repro.tempest.stats import COHERENCE_KINDS, MsgKind

from tests.tempest.conftest import run_programs, sharers_of


def build(n_nodes=3, cols=3, home_policy=HomePolicy.NODE0):
    cfg = ClusterConfig(n_nodes=n_nodes)
    mem = SharedMemory(cfg, home_policy=home_policy)
    a = mem.alloc("a", (32, cols), Distribution.block(n_nodes))
    return Cluster(cfg, mem), a


def column_blocks(a, j):
    """The blocks holding column ``j`` of ``a`` (a column is contiguous)."""
    last = a.shape[0] - 1
    return list(range(a.block_of_element((0, j)), a.block_of_element((last, j)) + 1))


class TestCoalesceRuns:
    def test_empty(self):
        assert coalesce_runs([], 8) == []

    def test_single(self):
        assert coalesce_runs([5], 8) == [(5, 1)]

    def test_contiguous_run(self):
        assert coalesce_runs([3, 4, 5, 6], 8) == [(3, 4)]

    def test_gap_splits(self):
        assert coalesce_runs([1, 2, 5, 6, 7], 8) == [(1, 2), (5, 3)]

    def test_max_run_limits_payload(self):
        assert coalesce_runs(list(range(10)), 4) == [(0, 4), (4, 4), (8, 2)]

    def test_max_run_one_is_per_block(self):
        assert coalesce_runs([1, 2, 3], 1) == [(1, 1), (2, 1), (3, 1)]

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            coalesce_runs([3, 3], 8)
        with pytest.raises(ValueError):
            coalesce_runs([5, 2], 8)


class TestMkWritable:
    def test_brings_blocks_exclusive_at_caller(self):
        cl, a = build()
        blocks = column_blocks(a, 1)

        def owner():
            yield from cl.ext.mk_writable(1, blocks)
            for b in blocks:
                assert cl.directory.state_of(b) is DirState.EXCLUSIVE
                assert cl.directory.owner_of(b) == 1
                assert cl.access.get(1, b) is AccessTag.READWRITE
                assert cl.directory.copy_is_current(1, b)

        run_programs(cl, n1=owner())

    def test_pipelined_faster_than_serial_misses(self):
        cl, a = build(cols=3)
        blocks = list(a.block_range())  # 6 blocks, all homed at node 0

        def owner():
            yield from cl.ext.mk_writable(1, blocks)

        stats = run_programs(cl, n1=owner())
        # Serial read misses would cost ~6 * 93us; pipelining must beat it.
        assert stats.elapsed_ns < 6 * 93_000

    def test_not_counted_as_demand_faults(self):
        cl, a = build()
        blocks = list(a.block_range())

        def owner():
            yield from cl.ext.mk_writable(1, blocks)

        stats = run_programs(cl, n1=owner())
        assert stats[1].write_faults == 0
        assert stats[1].call_ns > 0

    def test_idempotent_on_owned_blocks(self):
        cl, a = build()
        blocks = list(a.block_range())

        def owner():
            yield from cl.ext.mk_writable(1, blocks)
            msgs_before = cl.stats.total_messages
            yield from cl.ext.mk_writable(1, blocks)
            assert cl.stats.total_messages == msgs_before  # all short-circuit

        run_programs(cl, n1=owner())


class TestImplicitWritable:
    def test_sets_tags_without_directory_update(self):
        cl, a = build()
        b = a.base_block

        def reader():
            yield from cl.ext.implicit_writable(2, [b])
            assert cl.access.get(2, b) is AccessTag.READWRITE
            # Directory deliberately unaware (Figure 2C).
            assert cl.directory.state_of(b) is DirState.IDLE
            assert 2 not in sharers_of(cl.directory, b)

        run_programs(cl, n2=reader())

    def test_memoized_fast_path(self):
        cl, a = build()
        blocks = list(a.block_range())
        times = []

        def reader():
            t0 = cl.engine.now
            yield from cl.ext.implicit_writable(2, blocks, memo_key=(blocks[0], len(blocks)))
            times.append(cl.engine.now - t0)
            t0 = cl.engine.now
            yield from cl.ext.implicit_writable(2, blocks, memo_key=(blocks[0], len(blocks)))
            times.append(cl.engine.now - t0)

        run_programs(cl, n2=reader())
        assert times[1] < times[0]
        assert times[1] == cl.config.memoized_call_ns

    def test_memoized_call_tests_and_repairs(self):
        # "At subsequent times the call need only do the test": if a tag
        # was revoked in between, the test repairs it (paying per-block
        # cost for the lost ones only).
        cl, a = build()
        b = a.base_block
        key = (b, 1)

        def reader():
            yield from cl.ext.implicit_writable(2, [b], memo_key=key)
            yield from cl.ext.implicit_invalidate(2, [b])
            t0 = cl.engine.now
            yield from cl.ext.implicit_writable(2, [b], memo_key=key)
            repair_cost = cl.engine.now - t0
            assert cl.access.get(2, b) is AccessTag.READWRITE
            # Third call: nothing lost, pure constant-time test.
            t0 = cl.engine.now
            yield from cl.ext.implicit_writable(2, [b], memo_key=key)
            assert cl.engine.now - t0 == cl.config.memoized_call_ns
            assert repair_cost > cl.config.memoized_call_ns

        run_programs(cl, n2=reader())

    @pytest.mark.parametrize("as_range", [False, True])
    def test_memoized_repair_charges_only_the_lost_blocks(self, as_range):
        cl, a = build(cols=3)
        ids = list(a.block_range())
        blocks = a.block_range() if as_range else tuple(ids)
        key = (ids[0], len(ids))
        lost = [ids[1], ids[4]]

        def reader():
            yield from cl.ext.implicit_writable(2, blocks, memo_key=key)
            yield from cl.ext.implicit_invalidate(2, lost)
            assert cl.access.get(2, ids[0]) is AccessTag.READWRITE
            t0 = cl.engine.now
            yield from cl.ext.implicit_writable(2, blocks, memo_key=key)
            assert cl.engine.now - t0 == (
                cl.config.memoized_call_ns + 2 * cl.config.tag_change_per_block_ns
            )
            for b in ids:
                assert cl.access.get(2, b) is AccessTag.READWRITE
                assert cl.access._implicit[2, b]

        run_programs(cl, n2=reader())


class TestSendRecv:
    def test_full_fig2_sequence_no_misses(self):
        cl, a = build()
        blocks = column_blocks(a, 1)
        p, q = 1, 2

        def producer():
            yield from cl.ext.mk_writable(p, blocks)
            yield from cl.barrier(p)
            yield from cl.barrier(p)
            yield from cl.write_blocks(p, blocks, phase=1)
            yield from cl.ext.send_blocks(p, blocks, q)
            yield from cl.barrier(p)
            yield from cl.barrier(p)

        def consumer():
            yield from cl.barrier(q)
            yield from cl.ext.implicit_writable(q, blocks)
            yield from cl.barrier(q)
            yield from cl.ext.ready_to_recv(q, len(blocks))
            yield from cl.read_blocks(q, blocks)
            yield from cl.barrier(q)
            yield from cl.ext.implicit_invalidate(q, blocks)
            yield from cl.barrier(q)

        def home():
            for _ in range(4):
                yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=producer(), n2=consumer())
        assert stats[q].read_misses == 0
        assert cl.access.get(q, blocks[0]) is AccessTag.INVALID  # restored

    def test_bulk_transfer_single_message(self):
        cl, a = build()
        blocks = list(a.block_range())[:4]  # contiguous

        def setup_and_send():
            yield from cl.ext.mk_writable(1, blocks)
            yield from cl.ext.send_blocks(1, blocks, 2, bulk=True)

        def receiver():
            yield from cl.ext.implicit_writable(2, blocks)
            yield from cl.ext.ready_to_recv(2, len(blocks))

        stats = run_programs(cl, n1=setup_and_send(), n2=receiver())
        assert stats.messages_by_kind()[MsgKind.DATA] == 1

    def test_non_bulk_one_message_per_block(self):
        cl, a = build()
        blocks = list(a.block_range())[:4]

        def setup_and_send():
            yield from cl.ext.mk_writable(1, blocks)
            yield from cl.ext.send_blocks(1, blocks, 2, bulk=False)

        def receiver():
            yield from cl.ext.implicit_writable(2, blocks)
            yield from cl.ext.ready_to_recv(2, len(blocks))

        stats = run_programs(cl, n1=setup_and_send(), n2=receiver())
        assert stats.messages_by_kind()[MsgKind.DATA] == 4

    def test_bulk_respects_max_payload(self):
        cl, a = build(cols=6)
        blocks = list(a.block_range())  # 12 contiguous blocks
        cl.config  # max_payload_blocks=16 by default; shrink via coalesce

        def setup_and_send():
            yield from cl.ext.mk_writable(1, blocks)
            yield from cl.ext.send_blocks(1, blocks, 2, bulk=True)

        def receiver():
            yield from cl.ext.implicit_writable(2, blocks)
            yield from cl.ext.ready_to_recv(2, len(blocks))

        stats = run_programs(cl, n1=setup_and_send(), n2=receiver())
        assert stats.messages_by_kind()[MsgKind.DATA] == 1  # 12 <= 16

    def test_data_to_unprepared_receiver_violates_contract(self):
        cl, a = build()
        blocks = [a.base_block]

        def bad_sender():
            yield from cl.ext.mk_writable(1, blocks)
            yield from cl.ext.send_blocks(1, blocks, 2)  # no implicit_writable at 2!

        with pytest.raises(ContractViolation, match="implicit_writable"):
            run_programs(cl, n1=bad_sender())

    def test_sending_stale_copy_violates_contract(self):
        cl, a = build()
        b = a.base_block

        def stale_sender():
            yield from cl.ext.mk_writable(1, [b])
            yield from cl.barrier(1)
            # node 2 writes the block (recalls it from node 1)...
            yield from cl.barrier(1)
            # ...then node 1, now stale, tries to push its old copy.
            yield from cl.ext.send_blocks(1, [b], 0)

        def other_writer():
            yield from cl.barrier(2)
            yield from cl.write_blocks(2, [b], phase=3)
            yield from cl.barrier(2)

        def home():
            yield from cl.barrier(0)
            yield from cl.barrier(0)
            yield from cl.ext.implicit_writable(0, [b])

        with pytest.raises(ContractViolation, match="stale"):
            run_programs(cl, n0=home(), n1=stale_sender(), n2=other_writer())

    def test_optimized_steady_state_is_one_message(self):
        # Figure 1(b): after setup, each iteration moves one DATA message
        # and zero coherence messages.
        cl, a = build()
        b = a.base_block
        p, q = 1, 2

        def producer():
            yield from cl.ext.mk_writable(p, [b])
            yield from cl.barrier(p)
            before = None
            for it in range(1, 4):
                yield from cl.write_blocks(p, [b], phase=it)
                yield from cl.ext.send_blocks(p, [b], q)
                yield from cl.barrier(p)

        def consumer():
            yield from cl.ext.implicit_writable(q, [b])
            yield from cl.barrier(q)
            for _ in range(3):
                yield from cl.ext.ready_to_recv(q, 1)
                yield from cl.read_blocks(q, [b])
                yield from cl.barrier(q)

        def home():
            for _ in range(4):
                yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=producer(), n2=consumer())
        m = stats.messages_by_kind()
        assert m[MsgKind.DATA] == 3
        coherence = sum(v for k, v in m.items() if k in COHERENCE_KINDS)
        assert coherence == 2  # mk_writable's single upgrade only


class TestFlush:
    def test_non_owner_write_flush_restores_owner(self):
        cl, a = build()
        b = a.base_block
        owner, writer = 1, 2

        def owner_prog():
            yield from cl.ext.mk_writable(owner, [b])
            yield from cl.barrier(owner)
            yield from cl.barrier(owner)
            yield from cl.ext.ready_to_recv(owner, 1)
            yield from cl.read_blocks(owner, [b])  # sees writer's data

        def writer_prog():
            yield from cl.barrier(writer)
            yield from cl.ext.implicit_writable(writer, [b])
            yield from cl.write_blocks(writer, [b], phase=2)
            yield from cl.ext.flush_and_invalidate(writer, [b], owner)
            yield from cl.barrier(writer)

        def home():
            yield from cl.barrier(0)
            yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=owner_prog(), n2=writer_prog())
        assert cl.access.get(writer, b) is AccessTag.INVALID
        assert cl.directory.copy_is_current(owner, b)
        assert stats.messages_by_kind()[MsgKind.FLUSH] == 1

    def test_flush_to_unprepared_owner_violates_contract(self):
        cl, a = build()
        b = a.base_block

        def writer_prog():
            yield from cl.ext.implicit_writable(2, [b])
            yield from cl.write_blocks(2, [b], phase=1)
            yield from cl.ext.flush_and_invalidate(2, [b], 1)  # node 1 unprepared

        with pytest.raises(ContractViolation, match="mk_writable"):
            run_programs(cl, n2=writer_prog())
