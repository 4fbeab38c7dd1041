"""Unit tests for the network transport and node CPU model."""

import pytest

from repro.sim import Delay, Engine
from repro.tempest import ClusterConfig
from repro.tempest.network import HEADER_BYTES, Network
from repro.tempest.node import Node
from repro.tempest.stats import ClusterStats, MsgKind


def make_net(n_nodes=2, **cfg_kw):
    cfg = ClusterConfig(n_nodes=n_nodes, **cfg_kw)
    eng = Engine()
    stats = ClusterStats.for_nodes(n_nodes)
    nodes = [Node(i, eng, cfg, stats[i]) for i in range(n_nodes)]
    return eng, cfg, stats, nodes, Network(eng, cfg, stats, nodes)


class TestNetwork:
    def test_delivery_time_components(self):
        eng, cfg, stats, nodes, net = make_net()
        seen = []
        net.send(0, 1, MsgKind.ACK, lambda _seq: seen.append(eng.now), (), 0, payload_bytes=0)
        eng.run()
        expect = (
            cfg.transfer_ns(HEADER_BYTES) + cfg.wire_latency_ns + cfg.dispatch_overhead_ns
        )
        assert seen == [expect]

    def test_payload_extends_serialization(self):
        eng, cfg, _stats, _nodes, net = make_net()
        seen = []
        net.send(0, 1, MsgKind.DATA, lambda _seq: seen.append(eng.now), (), 0, payload_bytes=1024)
        eng.run()
        base = cfg.transfer_ns(HEADER_BYTES) + cfg.wire_latency_ns + cfg.dispatch_overhead_ns
        assert seen[0] == base + cfg.transfer_ns(1024)

    def test_back_to_back_sends_serialize_on_the_link(self):
        eng, cfg, _stats, _nodes, net = make_net()
        seen = []
        for _ in range(3):
            net.send(0, 1, MsgKind.DATA, lambda _seq: seen.append(eng.now), (), 0, payload_bytes=2000)
        eng.run()
        gaps = [b - a for a, b in zip(seen, seen[1:])]
        assert all(g == cfg.transfer_ns(HEADER_BYTES + 2000) for g in gaps)

    def test_handler_occupancy_serializes_at_destination(self):
        eng, cfg, _stats, _nodes, net = make_net()
        seen = []
        net.send(0, 1, MsgKind.ACK, lambda _seq: seen.append(("a", eng.now)), (), 50_000)
        net.send(0, 1, MsgKind.ACK, lambda _seq: seen.append(("b", eng.now)), (), 50_000)
        eng.run()
        # Second handler's effects apply a full occupancy after the first.
        assert seen[1][1] - seen[0][1] >= 50_000 - cfg.transfer_ns(HEADER_BYTES)

    def test_loopback_skips_wire(self):
        eng, cfg, _stats, _nodes, net = make_net()
        seen = []
        net.send(1, 1, MsgKind.ACK, lambda _seq: seen.append(eng.now), (), 0)
        eng.run()
        assert seen == [cfg.dispatch_overhead_ns]

    def test_message_accounting(self):
        eng, cfg, stats, _nodes, net = make_net()
        net.send(0, 1, MsgKind.DATA, lambda _seq: None, (), 0, payload_bytes=128)
        eng.run()
        assert stats[0].messages[MsgKind.DATA] == 1
        assert stats[0].bytes_sent == HEADER_BYTES + 128
        assert stats[1].bytes_sent == 0


class TestNodeCompute:
    def test_dual_cpu_compute_unsliced(self):
        eng = Engine()
        cfg = ClusterConfig(n_nodes=1, dual_cpu=True)
        node = Node(0, eng, cfg, ClusterStats.for_nodes(1)[0])

        def prog():
            yield from node.compute(10_000_000)

        eng.spawn(prog())
        eng.run()
        assert eng.now == 10_000_000
        assert node.stats.compute_ns == 10_000_000
        # One job on the CPU, not many slices.
        assert node.compute_cpu.jobs == 1

    def test_single_cpu_compute_sliced(self):
        eng = Engine()
        cfg = ClusterConfig(n_nodes=1, dual_cpu=False)
        node = Node(0, eng, cfg, ClusterStats.for_nodes(1)[0])

        def prog():
            yield from node.compute(1_000_000)

        eng.spawn(prog())
        eng.run()
        assert eng.now == 1_000_000
        assert node.compute_cpu.jobs == 1_000_000 // cfg.compute_quantum_ns

    def test_single_cpu_handlers_interleave_and_stall_accounted(self):
        eng = Engine()
        cfg = ClusterConfig(n_nodes=1, dual_cpu=False)
        node = Node(0, eng, cfg, ClusterStats.for_nodes(1)[0])
        handler_done = []
        eng.call_at(
            150_000, node.run_handler,
            30_000, lambda _seq: handler_done.append(eng.now), (), None,
        )

        def prog():
            yield from node.compute(1_000_000)

        eng.spawn(prog())
        eng.run()
        # The handler ran mid-computation (well before the compute end)...
        assert handler_done[0] < 1_000_000
        # ...and its occupancy + interrupt overhead delayed the compute.
        delay = cfg.interrupt_overhead_ns + 30_000
        assert eng.now == 1_000_000 + delay
        assert node.stats.stall_ns == delay

    def test_dual_cpu_handlers_do_not_steal_compute(self):
        eng = Engine()
        cfg = ClusterConfig(n_nodes=1, dual_cpu=True)
        node = Node(0, eng, cfg, ClusterStats.for_nodes(1)[0])
        eng.call_at(150_000, node.run_handler, 30_000, lambda _seq: None, (), None)

        def prog():
            yield from node.compute(1_000_000)

        eng.spawn(prog())
        eng.run()
        assert node.stats.stall_ns == 0

    def test_zero_compute_is_noop(self):
        eng = Engine()
        cfg = ClusterConfig(n_nodes=1)
        node = Node(0, eng, cfg, ClusterStats.for_nodes(1)[0])

        def prog():
            yield from node.compute(0)
            return eng.now

        done = eng.spawn(prog())
        eng.run()
        assert done.value == 0

    def test_drain_pending_waits_and_accounts(self):
        eng = Engine()
        cfg = ClusterConfig(n_nodes=1)
        node = Node(0, eng, cfg, ClusterStats.for_nodes(1)[0])
        fut = eng.future()
        node.post_pending(fut)
        eng.call_at(70_000, fut.resolve, None)

        def prog():
            yield from node.drain_pending()

        eng.spawn(prog())
        eng.run()
        assert eng.now == 70_000
        assert node.stats.stall_ns == 70_000
        assert node.pending == []
