"""Unit tests for the network transport and node CPU model."""

import pytest

from repro.sim import Engine
from repro.tempest import ClusterConfig, FaultConfig
from repro.tempest.network import (
    COMBINE_MAX_MSGS,
    COMBINE_SLOT_BYTES,
    HEADER_BYTES,
    Network,
)
from repro.tempest.node import Node
from repro.tempest.stats import ClusterStats, MsgKind
from repro.tempest.transport import ReliableTransport


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


def frame_sizes(cfg):
    """Every frame size the model puts on a link: a bare header or ack,
    a combined frame or combined ack of 2..COMBINE_MAX_MSGS slots, and a
    data payload of 1..max_payload_blocks blocks."""
    slots = range(2, COMBINE_MAX_MSGS + 1)
    return sorted(
        {HEADER_BYTES, ReliableTransport.ACK_BYTES}
        | {HEADER_BYTES + k * COMBINE_SLOT_BYTES for k in slots}
        | {ReliableTransport.ACK_BYTES + k * COMBINE_SLOT_BYTES for k in slots}
        | {HEADER_BYTES + m * cfg.block_size
           for m in range(1, cfg.max_payload_blocks + 1)}
    )


class TestWrittenOutOccupancy:
    """The per-message hops write ``Resource.then`` out inline; each copy
    must charge exactly what ``ClusterConfig.transfer_ns`` (links) or the
    handler cost (protocol CPU) says, to the nanosecond."""

    @pytest.mark.parametrize("bandwidth", [20.0, 7.3, 33.3])
    def test_perfect_wire_send(self, bandwidth):
        eng, cfg, _stats, _nodes, net = make_net(bandwidth_bytes_per_us=bandwidth)
        assert net._fused_wire
        for size in frame_sizes(cfg):
            start = eng.now
            seen = []
            net.send(
                0, 1, MsgKind.DATA, lambda _seq: seen.append(eng.now), (), 0,
                payload_bytes=size - HEADER_BYTES,
            )
            eng.run()
            arrival = seen[0] - cfg.wire_latency_ns - cfg.dispatch_overhead_ns
            assert arrival - start == cfg.transfer_ns(size), size

    @pytest.mark.parametrize("bandwidth", [20.0, 7.3, 33.3])
    def test_lossy_wire_link_hop(self, bandwidth):
        eng, cfg, _stats, _nodes, net = make_net(
            bandwidth_bytes_per_us=bandwidth, faults=FaultConfig(drop_prob=0.01)
        )
        assert net.transport is not None and net.switch is None
        assert not net.combining
        for size in frame_sizes(cfg):
            start = eng.now
            seen = []
            net.traverse(0, 1, size, None, lambda: seen.append(eng.now))
            eng.run()
            assert seen == [start + cfg.transfer_ns(size)], size

    @pytest.mark.parametrize("dual_cpu", [True, False])
    def test_handler_occupancy(self, dual_cpu):
        eng, cfg, _stats, nodes, _net = make_net(dual_cpu=dual_cpu)
        extra = 0 if dual_cpu else cfg.interrupt_overhead_ns
        for cost in (0, cfg.handler_ack_ns, cfg.handler_request_ns):
            start = eng.now
            seen = []
            nodes[1].run_handler(cost, lambda _seq: seen.append(eng.now), (), None)
            eng.run()
            assert seen == [start + cost + extra], cost


class TestNodeCompute:
    def test_dual_cpu_compute_unsliced(self):
        eng = Engine()
        cfg = ClusterConfig(n_nodes=1, dual_cpu=True)
        node = Node(0, eng, cfg, ClusterStats.for_nodes(1)[0])
        queued = []
        eng.call_at(150_000, node.compute_cpu.then, 0, lambda: queued.append(eng.now))

        def prog():
            yield from node.compute(10_000_000)

        eng.spawn(prog())
        eng.run()
        assert eng.now == 10_000_000
        assert node.stats.compute_ns == 10_000_000
        # One job on the CPU, not many slices: a job queued mid-compute
        # waits for all of it.
        assert queued == [10_000_000]

    def test_single_cpu_compute_sliced(self):
        eng = Engine()
        cfg = ClusterConfig(n_nodes=1, dual_cpu=False)
        node = Node(0, eng, cfg, ClusterStats.for_nodes(1)[0])
        queued = []
        eng.call_at(150_000, node.compute_cpu.then, 0, lambda: queued.append(eng.now))

        def prog():
            yield from node.compute(1_000_000)

        eng.spawn(prog())
        eng.run()
        assert eng.now == 1_000_000
        # A job queued mid-compute runs at the end of the current slice,
        # long before the compute ends.
        assert queued == [2 * cfg.compute_quantum_ns]

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
