"""Tests for the shared-switch contention model.

The unit tests drive ``Network.send`` directly with hand-computed
schedules: per-port FIFO ordering, two senders serializing on one
output port, exact contention-delay accounting, and backpressure on the
sending link.  The app-level tests pin the two properties the model
must keep: **disabled runs are byte-identical** to the link-only model
(ClusterStats equality, events included), and enabled runs keep the
numerics while exposing real queueing.  The interaction tests cover the
two cross-layer contracts: the adaptive RTO absorbs pure port-queueing
delay without spurious retransmits, and the combining layer's
link-idle flush still fires when the *switch*, not the link, is the
bottleneck.

Cost model cheat-sheet (paper parameters, 16-byte header frames):
ser(16 B) = 800 ns, wire latency 10 us split 5 us either side of the
switch, port forwarding at the link rate (fwd(16 B) = 800 ns),
dispatch 4 us, ack handler 4 us.
"""

import pytest

from repro.apps import APPS
from repro.runtime import run_shmem
from repro.tempest import ClusterConfig, FaultConfig, MsgKind
from repro.tempest.config import US, CombineConfig, SwitchConfig
from repro.tempest.network import COMBINE_MAX_WAIT_NS
from tests.tempest.conftest import make_cluster

SWITCH_ON = SwitchConfig(enabled=True)
JACOBI = dict(n=64, iters=3)


def switch_cluster(n_nodes=3, switch=SWITCH_ON, **overrides):
    cluster, _arr = make_cluster(n_nodes=n_nodes, switch=switch, **overrides)
    return cluster


def send_header(cluster, src, dst, log, tag, kind=MsgKind.ACK):
    cluster.network.send(
        src, dst, kind,
        lambda _seq: log.append((tag, cluster.engine.now)), (),
        cluster.config.handler_ack_ns,
    )


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #
class TestSwitchConfig:
    def test_disabled_by_default(self):
        assert not SwitchConfig().enabled
        assert not ClusterConfig().switch.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ports=0),
            dict(ports=-1),
            dict(bandwidth_bytes_per_us=0),
            dict(bandwidth_bytes_per_us=-20.0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        # The switch has no port count or bandwidth cap to set (one port
        # per node at link rate, as in the paper's crossbar), so a config
        # spelling either is refused, whatever the value.
        with pytest.raises(TypeError, match="unexpected keyword"):
            SwitchConfig(enabled=True, **kwargs)

    def test_port_count_defaults_to_node_count(self):
        # One output port per destination node.
        for n_nodes in (3, 8):
            cluster = switch_cluster(n_nodes=n_nodes)
            assert [p.port for p in cluster.stats.ports] == list(range(n_nodes))

    def test_forwarding_rate_defaults_to_link_rate(self):
        # A port's busy time for one frame is the frame's link
        # serialization time.
        cluster = switch_cluster()
        send_header(cluster, 0, 1, [], "x")
        cluster.engine.run()
        assert cluster.stats.ports[1].busy_ns == cluster.config.transfer_ns(16)

    def test_disabled_network_has_no_machinery(self):
        cluster = switch_cluster(switch=SwitchConfig())
        net = cluster.network
        assert net.switch is None
        assert net.residual_latency_ns == cluster.config.wire_latency_ns
        assert cluster.stats.ports == []
        assert not hasattr(net, "_port_depth")


# --------------------------------------------------------------------- #
# port queueing, hand-computed
# --------------------------------------------------------------------- #
class TestPortQueueing:
    def test_uncontended_frame_pays_one_extra_serialization(self):
        # With link-rate ports the only added cost is the single
        # store-and-forward hop: delivery shifts by exactly fwd(size).
        log_off, log_on = [], []
        for switch, log in ((SwitchConfig(), log_off), (SWITCH_ON, log_on)):
            cluster = switch_cluster(switch=switch)
            send_header(cluster, 0, 1, log, "x")
            cluster.engine.run()
        fwd = ClusterConfig().transfer_ns(16)
        assert log_on[0][1] == log_off[0][1] + fwd

    def test_two_senders_serialize_on_one_port(self):
        # Nodes 0 and 1 both send a header frame to node 2 at t=0.
        #   ser 800 | to-switch 5000 | port: [5800, 6600) and [6600, 7400)
        #   | residual 5000 + dispatch 4000 | ack handler 4000.
        # Node 0 wins the port (engine event order); node 1 queues 800 ns
        # behind it, then another 4000 ns for node 2's protocol CPU.
        cluster = switch_cluster()
        log = []

        def kickoff():
            send_header(cluster, 0, 2, log, "a")
            send_header(cluster, 1, 2, log, "b")

        cluster.engine.call_after(0, kickoff)
        cluster.engine.run()
        assert log == [("a", 19600), ("b", 23600)]
        assert cluster.stats[0].switch_wait_ns == 0
        assert cluster.stats[1].switch_wait_ns == 800
        assert cluster.stats[0].switch_frames == 1
        assert cluster.stats[1].switch_frames == 1

    def test_port_counters_match_hand_computed_values(self):
        cluster = switch_cluster()

        def kickoff():
            send_header(cluster, 0, 2, [], "a")
            send_header(cluster, 1, 2, [], "b")

        cluster.engine.call_after(0, kickoff)
        cluster.engine.run()
        ps = cluster.stats.ports[2]
        assert (ps.frames, ps.busy_ns, ps.wait_ns, ps.max_depth) == (2, 1600, 800, 2)
        assert cluster.stats.ports[0].frames == 0
        assert cluster.stats.ports[1].frames == 0
        assert cluster.stats.total_switch_wait_ns == 800
        assert cluster.stats.max_port_depth == 2

    def test_backpressure_holds_the_sending_link(self):
        # Node 1's link stays occupied until port 2 accepts its frame:
        # 800 ns serialization + the 800 ns the port made it wait.  So
        # node 1's next frame, to the idle port 0, leaves at 1600 ns:
        #   ser [1600, 2400) | to-switch 5000 | port 0 [7400, 8200)
        #   | residual 5000 + dispatch 4000 | ack handler 4000.
        cluster = switch_cluster()
        log = []

        def kickoff():
            send_header(cluster, 0, 2, [], "a")
            send_header(cluster, 1, 2, [], "b")
            send_header(cluster, 1, 0, log, "c")

        cluster.engine.call_after(0, kickoff)
        cluster.engine.run()
        assert log == [("c", 21200)]
        assert cluster.stats.ports[2].wait_ns == 800
        assert cluster.stats.ports[0].wait_ns == 0

    def test_per_port_fifo_follows_submission_order(self):
        # Three senders race to one destination in one engine event;
        # deliveries come out in exactly submission order.
        cluster = switch_cluster(n_nodes=4)
        log = []

        def kickoff():
            for src, tag in ((2, "first"), (0, "second"), (1, "third")):
                send_header(cluster, src, 3, log, tag)

        cluster.engine.call_after(0, kickoff)
        cluster.engine.run()
        assert [tag for tag, _t in log] == ["first", "second", "third"]
        times = [t for _tag, t in log]
        assert times == sorted(times)
        # Waits stack: 0, one fwd, two fwds.
        assert [cluster.stats[n].switch_wait_ns for n in (2, 0, 1)] == [0, 800, 1600]

    def test_loopback_skips_the_switch(self):
        cluster = switch_cluster()
        log = []
        send_header(cluster, 1, 1, log, "self")
        cluster.engine.run()
        assert len(log) == 1
        assert cluster.stats.total_switch_frames == 0
        assert all(p.frames == 0 for p in cluster.stats.ports)


# --------------------------------------------------------------------- #
# disabled == byte-identical; enabled == same numerics
# --------------------------------------------------------------------- #
class TestAppsUnderSwitch:
    CFG8 = ClusterConfig(n_nodes=8)

    def test_disabled_switch_is_byte_identical(self):
        # An explicitly disabled SwitchConfig must not perturb the
        # schedule at all: full ClusterStats equality, events included.
        prog = APPS["jacobi"].program(**JACOBI)
        base = run_shmem(prog, self.CFG8)
        off = run_shmem(prog, self.CFG8.scaled(switch=SwitchConfig(enabled=False)))
        assert off.stats == base.stats
        assert off.stats.events_dispatched == base.stats.events_dispatched

    def test_enabled_switch_keeps_numerics_and_counts_queueing(self):
        prog = APPS["jacobi"].program(**JACOBI)
        base = run_shmem(prog, self.CFG8)
        on = run_shmem(prog, self.CFG8.scaled(switch=SWITCH_ON))
        on.assert_same_numerics(base)
        # Every remote frame routed through the fabric; the all-to-one
        # barrier fan-in alone guarantees real contention.
        assert on.stats.total_switch_frames > 0
        assert on.stats.total_switch_wait_ns > 0
        assert on.stats.max_port_depth >= 2
        assert on.stats.elapsed_ns >= base.stats.elapsed_ns

    def test_contended_run_is_deterministic(self):
        prog = APPS["jacobi"].program(**JACOBI)
        cfg = self.CFG8.scaled(switch=SWITCH_ON)
        a = run_shmem(prog, cfg)
        b = run_shmem(prog, cfg)
        assert a.stats == b.stats

    def test_summary_keys_only_when_enabled(self):
        prog = APPS["jacobi"].program(**JACOBI)
        base = run_shmem(prog, self.CFG8)
        on = run_shmem(prog, self.CFG8.scaled(switch=SWITCH_ON))
        assert "switch_frames" not in base.stats.summary()
        assert base.stats.switch_summary() == {
            "switch_frames": 0, "switch_wait_ms": 0.0, "max_port_depth": 0,
        }
        assert on.stats.summary()["switch_frames"] > 0
        assert "max_port_depth" in on.stats.summary()


# --------------------------------------------------------------------- #
# interaction: adaptive RTO under pure queueing delay
# --------------------------------------------------------------------- #
def paired_bulk_run(adaptive, rounds=6):
    """Two bulk senders to one destination in spaced rounds.

    Each round, nodes 1 and 2 submit a 2 KB frame to node 0 together;
    node 2 loses the port race and eats a full forwarding time (~103 us)
    of pure queueing delay every round.  The first round staggers node 2
    by 50 us so its channel takes a moderate warm-up RTT sample first.
    """
    faults = FaultConfig(jitter_ns=1, seed=0, adaptive_rto=adaptive)
    cluster, _ = make_cluster(n_nodes=3, faults=faults, switch=SWITCH_ON)
    delivered = []

    def send(src, i):
        cluster.network.send(
            src, 0, MsgKind.DATA, lambda _seq: delivered.append((src, i)), (),
            cluster.config.handler_data_recv_ns, payload_bytes=2048,
        )

    for r in range(rounds):
        t = r * 1000 * US
        cluster.engine.call_after(t, send, 1, r)
        cluster.engine.call_after(t + (50 * US if r == 0 else 0), send, 2, r)
    cluster.engine.run()
    return cluster.stats, delivered


class TestAdaptiveRtoUnderContention:
    def test_adaptive_rto_absorbs_port_queueing(self):
        # Pure queueing delay (no drops, no dups): the size-aware,
        # switch-aware timer plus the Jacobson estimator must never fire
        # while the frame is just waiting for a hot port.
        stats, delivered = paired_bulk_run(adaptive=True)
        rel = stats.reliability_summary()
        assert rel["spurious_retransmits"] == 0
        assert rel["retransmits"] == 0
        assert rel["drops"] == 0 and rel["dups"] == 0
        assert len(delivered) == 12
        # ... and the delay was real: node 2 queued behind node 1 every
        # round (a full 2 KB forwarding time each, minus the warm-up).
        assert stats[2].switch_wait_ns > 500 * US

    def test_fixed_rto_fires_spuriously_on_the_same_schedule(self):
        # The contrast that makes the absorption meaningful: the fixed
        # 120 us timer cannot cover ~100 us of queueing plus the bulk
        # path, so every contended frame retransmits in vain.
        stats, delivered = paired_bulk_run(adaptive=False)
        rel = stats.reliability_summary()
        assert rel["spurious_retransmits"] > 0
        assert rel["retransmits"] == rel["spurious_retransmits"]
        assert len(delivered) == 12


# --------------------------------------------------------------------- #
# interaction: combining's link-idle flush under switch backpressure
# --------------------------------------------------------------------- #
class TestCombiningUnderSwitch:
    def test_link_idle_flush_fires_when_switch_is_the_bottleneck(self):
        # Port 0 is backlogged by node 1's 4 KB frame; node 2's 2 KB
        # frame queues behind it, and backpressure holds node 2's link
        # for the whole 308 us wait (vs 103.2 us of pure serialization).
        # Three control frames park behind the held link at 380 us, so
        # their hold timer would fire at 420 us — only the link-idle
        # trigger can explain a flush at link-free time (411.2 us), and
        # it must still fire even though the *switch*, not the link, set
        # that time.
        cluster = switch_cluster(combine=CombineConfig(enabled=True))
        net, cfg = cluster.network, cluster.config
        log = []
        parked_at = 380 * US

        def bulk():
            net.send(1, 0, MsgKind.DATA, lambda _seq: None, (),
                     cfg.handler_data_recv_ns, payload_bytes=4096)
            net.send(2, 0, MsgKind.DATA, lambda _seq: None, (),
                     cfg.handler_data_recv_ns, payload_bytes=2048)

        def control():
            for i in range(3):
                net.send(2, 0, MsgKind.ACK,
                         lambda _seq, i=i: log.append((i, cluster.engine.now)), (),
                         cfg.handler_ack_ns, combinable=True)

        # Probe between link-free and the hold timer's deadline.
        flushes_at_415_us = []
        cluster.engine.call_after(0, bulk)
        cluster.engine.call_after(parked_at, control)
        cluster.engine.call_after(
            415 * US,
            lambda: flushes_at_415_us.append(cluster.stats.total_combine_flushes),
        )
        cluster.engine.run()
        # The three parked acks rode one combined frame, in order.
        assert cluster.stats.total_combine_flushes == 1
        assert sum(n.msgs_combined[MsgKind.ACK] for n in cluster.stats.nodes) == 3
        assert [i for i, _t in log] == [0, 1, 2]
        delivered = log[0][1]
        assert all(t == delivered for _i, t in log)
        # Flushed at link-free (411.2 us, set by backpressure), queued
        # once more behind the 2 KB forwarding, delivered at 550.4 us.
        assert delivered == 550400
        assert flushes_at_415_us == [1]
        assert 415 * US < parked_at + COMBINE_MAX_WAIT_NS
        # The port, not the link, set the pace: all of its queueing fell
        # on node 2's frames, 308 us of it on the 2 KB one.
        assert cluster.stats.ports[0].wait_ns == 409800
        assert cluster.stats[2].switch_wait_ns == 409800
