"""Tests for the message-based barrier and collective operations."""

import pytest

from repro.tempest import Cluster, ClusterConfig, Distribution, SharedMemory
from repro.tempest.stats import MsgKind

from tests.tempest.conftest import make_cluster, run_programs


def plain_cluster(n_nodes=4):
    cfg = ClusterConfig(n_nodes=n_nodes)
    mem = SharedMemory(cfg)
    mem.alloc("a", (16, n_nodes), Distribution.block(n_nodes))
    return Cluster(cfg, mem)


class TestBarrier:
    def test_no_node_leaves_before_all_arrive(self):
        cl = plain_cluster()
        exits = {}

        def prog(n, arrive_delay):
            yield from cl.compute(n, arrive_delay)
            yield from cl.barrier(n)
            exits[n] = cl.engine.now

        stats = cl.run({n: prog(n, n * 500_000) for n in range(4)})
        # The last arrival is at 1.5 ms; every exit must be later.
        assert all(t > 1_500_000 for t in exits.values())
        assert stats.elapsed_ns > 1_500_000

    def test_barrier_message_count(self):
        cl = plain_cluster(4)

        def prog(n):
            yield from cl.barrier(n)

        stats = cl.run({n: prog(n) for n in range(4)})
        m = stats.messages_by_kind()
        assert m[MsgKind.BARRIER_ARRIVE] == 4
        assert m[MsgKind.BARRIER_RELEASE] == 4

    def test_sequential_barriers_do_not_mix_generations(self):
        cl = plain_cluster(3) if False else plain_cluster(4)
        order = []

        def prog(n):
            for k in range(5):
                yield from cl.compute(n, (n + 1) * 10_000)
                yield from cl.barrier(n)
                order.append((k, n, cl.engine.now))

        cl.run({n: prog(n) for n in range(4)})
        # Within each round, all nodes exit before any node exits the next.
        by_round = {}
        for k, n, t in order:
            by_round.setdefault(k, []).append(t)
        for k in range(4):
            assert max(by_round[k]) <= min(by_round[k + 1])

    def test_barrier_time_accounted(self):
        cl = plain_cluster()

        def fast(n):
            yield from cl.barrier(n)

        def slow():
            yield from cl.compute(3, 5_000_000)
            yield from cl.barrier(3)

        stats = run_programs(cl, n0=fast(0), n1=fast(1), n2=fast(2), n3=slow())
        # The early arrivals waited ~5ms.
        assert stats[0].barrier_ns > 4_000_000
        assert stats[3].barrier_ns < 1_000_000

    def test_barrier_drains_pending_writes(self):
        # 512x2 doubles = two 4 KB pages; column 1 (page 1) is homed at node 1.
        cl, a = make_cluster(n_nodes=2, shape=(512, 2))
        b = a.block_of_element((0, 1))  # homed at node 1
        assert cl.directory.home_of(b) == 1

        def writer():
            yield from cl.write_blocks(0, [b], phase=1)
            assert cl.nodes[0].pending
            yield from cl.barrier(0)
            assert not cl.nodes[0].pending

        def other():
            yield from cl.barrier(1)

        run_programs(cl, n0=writer(), n1=other())


class TestReduce:
    def test_all_nodes_wait_for_reduction(self):
        cl = plain_cluster()
        exits = {}

        def prog(n):
            yield from cl.compute(n, n * 300_000)
            yield from cl.reduce(n)
            exits[n] = cl.engine.now

        cl.run({n: prog(n) for n in range(4)})
        assert all(t > 900_000 for t in exits.values())

    def test_reduce_message_count(self):
        cl = plain_cluster(4)

        def prog(n):
            yield from cl.reduce(n, n_values=4)

        stats = cl.run({n: prog(n) for n in range(4)})
        m = stats.messages_by_kind()
        assert m[MsgKind.REDUCE] == 4
        assert m[MsgKind.REDUCE_RESULT] == 4  # one result per node

    def test_reduce_time_accounted(self):
        cl = plain_cluster()

        def prog(n):
            yield from cl.reduce(n)

        stats = cl.run({n: prog(n) for n in range(4)})
        assert all(s.reduce_ns > 0 for s in stats.nodes)

    def test_repeated_reductions(self):
        cl = plain_cluster()

        def prog(n):
            for _ in range(3):
                yield from cl.reduce(n)

        stats = cl.run({n: prog(n) for n in range(4)})
        assert stats.messages_by_kind()[MsgKind.REDUCE_RESULT] == 3 * 4


class TestMessagePassing:
    def test_send_recv_rendezvous(self):
        cl = plain_cluster(2)
        t_recv = {}

        def sender():
            yield from cl.compute(0, 1_000_000)
            yield from cl.collectives.mp_send(0, 1, nbytes=4096)

        def receiver():
            yield from cl.collectives.mp_recv(1, n_messages=1)
            t_recv[1] = cl.engine.now

        run_programs(cl, n0=sender(), n1=receiver())
        assert t_recv[1] > 1_000_000  # waited for the send
        assert cl.stats[1].stall_ns > 900_000

    def test_multiple_messages_counted(self):
        cl = plain_cluster(2)

        def sender():
            for _ in range(5):
                yield from cl.collectives.mp_send(0, 1, nbytes=128)

        def receiver():
            yield from cl.collectives.mp_recv(1, n_messages=5)

        stats = run_programs(cl, n0=sender(), n1=receiver())
        assert stats.messages_by_kind()[MsgKind.MP_DATA] == 5

    def test_payload_bytes_affect_latency(self):
        def run_one(nbytes):
            cl = plain_cluster(2)

            def sender():
                yield from cl.collectives.mp_send(0, 1, nbytes=nbytes)

            def receiver():
                yield from cl.collectives.mp_recv(1, n_messages=1)

            return run_programs(cl, n0=sender(), n1=receiver()).elapsed_ns

        # 64 KB at 20 MB/s adds ~3.2 ms of serialization over 1 KB.
        assert run_one(65536) - run_one(1024) == pytest.approx(3_225_600, rel=0.05)


class TestTreeReduce:
    def _run(self, n_nodes, reductions=3, algo="tree"):
        cfg = ClusterConfig(n_nodes=n_nodes, reduce_algorithm=algo)
        mem = SharedMemory(cfg)
        mem.alloc("a", (16, n_nodes), Distribution.block(n_nodes))
        cl = Cluster(cfg, mem)
        exits = {}

        def prog(i):
            yield from cl.compute(i, i * 100_000)
            for _ in range(reductions):
                yield from cl.reduce(i)
            exits[i] = cl.engine.now

        stats = cl.run({i: prog(i) for i in range(n_nodes)})
        return cl, stats, exits

    @pytest.mark.parametrize("n_nodes", [2, 3, 5, 8, 16])
    def test_all_nodes_synchronize(self, n_nodes):
        _cl, stats, exits = self._run(n_nodes)
        # Nobody leaves a reduction before the slowest contributor arrived.
        slowest_arrival = (n_nodes - 1) * 100_000
        assert all(t > slowest_arrival for t in exits.values())
        # Three rounds, each ending in n - 1 tree result messages.
        assert stats.messages_by_kind()[MsgKind.REDUCE_RESULT] == 3 * (n_nodes - 1)

    def test_message_count_is_2n_minus_2_per_round(self):
        cl, stats, _ = self._run(8, reductions=1)
        m = stats.messages_by_kind()
        assert m[MsgKind.REDUCE] == 7
        assert m[MsgKind.REDUCE_RESULT] == 7

    def test_tree_beats_central_at_scale(self):
        _cl, tree, _ = self._run(16, algo="tree")
        _cl, central, _ = self._run(16, algo="central")
        assert tree.elapsed_ns < central.elapsed_ns

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="reduce_algorithm"):
            ClusterConfig(n_nodes=4, reduce_algorithm="butterfly")

    def test_apps_agree_under_tree_reduce(self):
        from repro.apps import APPS
        from repro.runtime import run_shmem, run_uniproc

        cfg = ClusterConfig(n_nodes=8, reduce_algorithm="tree")
        prog = APPS["grav"].program(n=17, iters=1)
        run_shmem(prog, cfg, optimize=True).assert_same_numerics(
            run_uniproc(prog, cfg)
        )
