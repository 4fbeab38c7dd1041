"""Tests for the write-update protocol variant."""

import pytest

from repro.apps import APPS
from repro.runtime import run_shmem, run_uniproc
from repro.tempest import (
    AccessTag,
    Cluster,
    ClusterConfig,
    Distribution,
    HomePolicy,
    SharedMemory,
)
from repro.tempest.stats import MsgKind
from tests.tempest.conftest import run_programs


def build(n_nodes=3):
    cfg = ClusterConfig(n_nodes=n_nodes)
    mem = SharedMemory(cfg, home_policy=HomePolicy.NODE0)
    a = mem.alloc("a", (16, n_nodes), Distribution.block(n_nodes))
    return Cluster(cfg, mem, protocol="update"), a


class TestUpdateSemantics:
    def test_producer_consumer_single_data_message_steady_state(self):
        cl, a = build()
        b = a.block_of_element((0, 1))
        iters = 4

        def producer():
            for it in range(1, iters + 1):
                yield from cl.write_blocks(1, [b], phase=it)
                yield from cl.barrier(1)
                yield from cl.barrier(1)

        def consumer():
            for it in range(1, iters + 1):
                yield from cl.barrier(2)
                yield from cl.read_blocks(2, [b], phase=it)
                yield from cl.barrier(2)

        def home():
            for _ in range(iters):
                yield from cl.barrier(0)
                yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=producer(), n2=consumer())
        m = stats.messages_by_kind()
        # Consumer misses once (cold); afterwards updates keep it current.
        assert stats[2].read_misses == 1
        assert m[MsgKind.UPDATE] > 0
        # Steady state: updates to {home, consumer} per iteration.
        assert m[MsgKind.UPDATE] == m[MsgKind.UPDATE_ACK]

    def test_sharers_stay_current_without_refetch(self):
        cl, a = build()
        b = a.block_of_element((0, 1))

        def producer():
            yield from cl.write_blocks(1, [b], phase=1)
            yield from cl.barrier(1)
            yield from cl.barrier(1)
            yield from cl.write_blocks(1, [b], phase=2)
            yield from cl.barrier(1)

        def consumer():
            yield from cl.barrier(2)
            yield from cl.read_blocks(2, [b], phase=1)
            yield from cl.barrier(2)
            yield from cl.barrier(2)
            # Still a hit, and still current: the update refreshed it.
            yield from cl.read_blocks(2, [b], phase=3)

        def home():
            for _ in range(3):
                yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=producer(), n2=consumer())
        assert stats[2].read_misses == 1  # only the cold one
        assert cl.directory.copy_is_current(2, b)

    def test_write_allocate_counts_write_fault(self):
        cl, a = build()
        b = a.block_of_element((0, 0))  # homed at 0

        def writer():
            yield from cl.write_blocks(2, [b], phase=1)
            yield from cl.barrier(2)

        def others(n):
            yield from cl.barrier(n)

        stats = run_programs(cl, n0=others(0), n1=others(1), n2=writer())
        assert stats[2].write_faults == 1
        assert stats[2].read_misses == 0
        assert cl.access.get(2, b) is AccessTag.READWRITE

    def test_private_writes_are_free(self):
        cl, a = build()
        b = a.block_of_element((0, 0))  # home 0 writes its own block

        def writer():
            for it in range(1, 5):
                yield from cl.write_blocks(0, [b], phase=it)

        stats = run_programs(cl, n0=writer())
        assert stats.total_messages == 0

    def test_useless_updates_to_past_readers(self):
        # The pathology: a one-time reader keeps receiving updates forever.
        cl, a = build()
        b = a.block_of_element((0, 1))
        iters = 5

        def producer():
            yield from cl.barrier(1)  # consumer reads once first
            for it in range(1, iters + 1):
                yield from cl.write_blocks(1, [b], phase=it)
            yield from cl.barrier(1)

        def consumer():
            yield from cl.read_blocks(2, [b])
            yield from cl.barrier(2)
            yield from cl.barrier(2)  # never reads again

        def home():
            yield from cl.barrier(0)
            yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=producer(), n2=consumer())
        m = stats.messages_by_kind()
        # Every write updated both the home and the long-gone reader.
        assert m[MsgKind.UPDATE] == 2 * iters

    def test_self_invalidate_mitigates_useless_updates(self):
        cl, a = build()
        b = a.block_of_element((0, 1))
        iters = 5

        def producer():
            yield from cl.barrier(1)
            for it in range(1, iters + 1):
                yield from cl.write_blocks(1, [b], phase=it)
            yield from cl.barrier(1)

        def consumer():
            yield from cl.read_blocks(2, [b])
            yield from cl.ext.self_invalidate(2, [b])  # the classic fix
            yield from cl.barrier(2)
            yield from cl.barrier(2)

        def home():
            yield from cl.barrier(0)
            yield from cl.barrier(0)

        stats = run_programs(cl, n0=home(), n1=producer(), n2=consumer())
        m = stats.messages_by_kind()
        assert m[MsgKind.UPDATE] == iters  # home only

    def test_compiler_extensions_rejected(self):
        cl, a = build()
        with pytest.raises(NotImplementedError, match="invalidate"):
            next(cl.protocol.write_block(1, a.base_block))


class TestUpdateProtocolEndToEnd:
    @pytest.mark.parametrize("name", ["jacobi", "grav"])
    def test_apps_run_correctly(self, name):
        cfg = ClusterConfig(n_nodes=4)
        params = {"jacobi": dict(n=64, iters=3), "grav": dict(n=17, iters=2)}[name]
        prog = APPS[name].program(**params)
        upd = run_shmem(prog, cfg, protocol="update")
        upd.assert_same_numerics(run_uniproc(prog, cfg))
        assert upd.stats.messages_by_kind()[MsgKind.UPDATE] > 0

    def test_optimize_refused_under_update(self):
        cfg = ClusterConfig(n_nodes=4)
        prog = APPS["jacobi"].program(n=32, iters=2)
        with pytest.raises(ValueError, match="invalidate"):
            run_shmem(prog, cfg, optimize=True, protocol="update")

    def test_unknown_protocol_rejected(self):
        cfg = ClusterConfig(n_nodes=2)
        mem = SharedMemory(cfg)
        mem.alloc("a", (16, 2), Distribution.block(2))
        with pytest.raises(ValueError, match="unknown protocol"):
            Cluster(cfg, mem, protocol="token")
