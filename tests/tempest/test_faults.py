"""Unit tests for the fault model and the reliable transport.

The controlled tests replace the transport's seeded RNG with a scripted
one, so each reliability mechanism (retransmit, backoff, dedup, reorder)
is exercised by name rather than hoped for statistically; the end-to-end
tests then run real workloads under seeded fault storms.
"""

import random

import pytest

from repro.obs.bus import EventBus
from repro.tempest import FaultConfig, MsgKind
from repro.tempest.config import CombineConfig
from repro.tempest.faults import PartitionScenario, _US
from tests.tempest.conftest import make_cluster


class ScriptedRandom:
    """random.Random stand-in replaying a fixed script of draws.

    ``random()`` pops from ``uniforms`` (then repeats the final value);
    ``randrange(n)`` pops from ``ranges`` (then returns 0).
    """

    def __init__(self, uniforms=(), ranges=()):
        self.uniforms = list(uniforms)
        self.ranges = list(ranges)

    def random(self):
        return self.uniforms.pop(0) if len(self.uniforms) > 1 else self.uniforms[0]

    def randrange(self, n):
        v = self.ranges.pop(0) if self.ranges else 0
        assert v < n
        return v


class RecordingRandom:
    """A seeded ``random.Random`` that logs each draw as ``(method, arg)``."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.log = []

    def random(self):
        self.log.append(("random", None))
        return self._rng.random()

    def randrange(self, n):
        self.log.append(("randrange", n))
        return self._rng.randrange(n)


def faulty_cluster(faults, n_nodes=2):
    cluster, _arr = make_cluster(n_nodes=n_nodes, faults=faults)
    return cluster


def _idle():
    return
    yield  # pragma: no cover


def _ignore(_seq) -> None:
    """A message handler with no effect."""


def send_and_run(cluster, n_messages=1, src=0, dst=1):
    """Send header-only messages and drain the engine; returns delivery log."""
    log = []
    for i in range(n_messages):
        cluster.network.send(
            src, dst, MsgKind.ACK,
            lambda _seq, i=i: log.append((i, cluster.engine.now)), (),
            cluster.config.handler_ack_ns,
        )
    cluster.engine.run()
    return log


# --------------------------------------------------------------------- #
# FaultConfig validation
# --------------------------------------------------------------------- #
class TestFaultConfig:
    def test_defaults_disabled(self):
        assert not FaultConfig().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(drop_prob=0.1),
            dict(dup_prob=0.1),
            dict(jitter_ns=1),
            dict(stall_prob=0.1, stall_ns=1000),
        ],
    )
    def test_any_fault_enables(self, kwargs):
        assert FaultConfig(**kwargs).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(drop_prob=1.0),
            dict(drop_prob=-0.1),
            dict(dup_prob=1.5),
            dict(stall_prob=0.5),          # stall_ns missing
            dict(jitter_ns=-1),
            dict(retransmit_timeout_ns=0),
            dict(retransmit_timeout_ns=100, max_backoff_ns=50),
            dict(max_retries=0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_seed_alone_does_not_enable(self):
        # A seed without fault rates must not perturb fault-free runs.
        assert not FaultConfig(seed=99).enabled


# --------------------------------------------------------------------- #
# transport wiring
# --------------------------------------------------------------------- #
class TestTransportEngagement:
    def test_perfect_wire_has_no_transport(self):
        cluster, _ = make_cluster(n_nodes=2)
        assert cluster.network.transport is None

    def test_faulty_wire_builds_transport(self):
        cluster = faulty_cluster(FaultConfig(drop_prob=0.1))
        assert cluster.network.transport is not None

    def test_loopback_bypasses_transport(self):
        # Self-sends never cross the wire, so they take no fault draws.
        cluster = faulty_cluster(FaultConfig(drop_prob=0.5, seed=1))
        cluster.network.transport.rng = ScriptedRandom([0.0])  # would drop
        log = send_and_run(cluster, src=0, dst=0)
        assert len(log) == 1
        assert cluster.stats.total_drops == 0


# --------------------------------------------------------------------- #
# reliability mechanisms, each forced by a scripted RNG
# --------------------------------------------------------------------- #
class TestRetransmit:
    def test_dropped_frame_retransmitted_and_delivered_once(self):
        cluster = faulty_cluster(FaultConfig(drop_prob=0.5, seed=0))
        # Draw order per wire copy: drop?, dup?.  Script: first copy drops,
        # every later draw (retransmit, acks) passes.
        cluster.network.transport.rng = ScriptedRandom([0.0, 0.9, 0.9])
        log = send_and_run(cluster)
        assert len(log) == 1
        assert cluster.stats.total_drops == 1
        assert cluster.stats.total_retransmits == 1
        # Delivery waited for the retransmit timeout.
        assert log[0][1] >= FaultConfig().retransmit_timeout_ns

    def test_lost_ack_recovered_by_dedup(self):
        cluster = faulty_cluster(FaultConfig(drop_prob=0.5, seed=0))
        # dup_prob is 0, so draws are alternating data-drop/ack-drop:
        # data passes, ack DROPS; retransmitted data passes, ack passes.
        cluster.network.transport.rng = ScriptedRandom([0.9, 0.0, 0.9, 0.9])
        log = send_and_run(cluster)
        assert len(log) == 1                       # handler still exactly-once
        assert cluster.stats.total_retransmits == 1
        assert cluster.stats.total_dups == 1       # the retransmitted copy
        assert cluster.network.transport.in_flight == 0

    def test_unreachable_peer_parks_instead_of_raising(self):
        # Historically this raised TransportError and aborted the run; the
        # recovery protocol instead marks the channel PARTITIONED, parks
        # the frame, and records the give-up in the stats.
        cluster = faulty_cluster(
            FaultConfig(drop_prob=0.9, seed=0, max_retries=3)
        )
        cluster.network.transport.rng = ScriptedRandom([0.0])  # drop forever
        log = send_and_run(cluster)
        assert log == []                                # never delivered
        assert cluster.stats.total_retransmits == 3
        assert cluster.stats.total_gave_up == 1
        t = cluster.network.transport
        assert t.parked_frames == 1
        assert t.partitioned_channels() == [{"src": 0, "dst": 1, "parked": 1}]
        (event,) = cluster.stats.partition_events
        assert event["src"] == 0 and event["dst"] == 1
        assert event["scenario"] is None                # organic loss
        assert event["healed"] is False


class TestBackoff:
    def test_timeout_doubles_until_capped(self):
        faults = FaultConfig(
            drop_prob=0.9, seed=0,
            retransmit_timeout_ns=100 * _US,
            max_backoff_ns=400 * _US,
            max_retries=6,
        )
        cluster = faulty_cluster(faults)
        cluster.network.transport.rng = ScriptedRandom([0.0])  # drop forever
        log = send_and_run(cluster)
        assert log == []  # retransmit budget exhausted; frame parked
        # 100 -> 200 -> 400 (cap) -> 400 -> ...: only two real increases.
        assert cluster.stats.total_backoffs == 2
        assert cluster.stats.total_retransmits == 6
        assert cluster.stats.total_gave_up == 1

    def test_retransmit_spacing_follows_backoff(self):
        faults = FaultConfig(
            drop_prob=0.5, seed=0,
            retransmit_timeout_ns=100 * _US,
            max_backoff_ns=10_000 * _US,
        )
        cluster = faulty_cluster(faults)
        # Drop the first two copies, deliver the third, ack passes.
        cluster.network.transport.rng = ScriptedRandom([0.0, 0.0, 0.9, 0.9])
        log = send_and_run(cluster)
        assert len(log) == 1
        # Two timeouts elapsed before the successful copy: 100us then 200us.
        assert log[0][1] >= (100 + 200) * _US
        assert cluster.stats.total_backoffs == 2


class TestDedupAndOrdering:
    def test_duplicate_wire_copy_suppressed(self):
        cluster = faulty_cluster(FaultConfig(dup_prob=0.5, seed=0))
        # drop_prob is 0 so the only draw per wire copy is the dup draw:
        # DUPLICATE the first copy, then all clean.
        cluster.network.transport.rng = ScriptedRandom([0.0, 0.9])
        log = send_and_run(cluster)
        assert len(log) == 1
        assert cluster.stats.total_dups == 1

    def test_jitter_cannot_reorder_handlers(self):
        # Frame 0 takes near-maximal jitter, frame 1 none: frame 1's wire
        # copy arrives first but must wait for frame 0 in the reorder
        # buffer.  The retransmit timeout exceeds the jitter bound so the
        # delayed copy is not also retransmitted.
        cluster = faulty_cluster(
            FaultConfig(jitter_ns=100 * _US, retransmit_timeout_ns=500 * _US)
        )
        cluster.network.transport.rng = ScriptedRandom(
            [0.9], ranges=[100 * _US - 1, 0, 0, 0]
        )
        log = send_and_run(cluster, n_messages=2)
        assert [i for i, _t in log] == [0, 1]
        assert cluster.stats.total_dups == 0
        assert cluster.stats.total_retransmits == 0

    def test_interleaved_channels_are_independent(self):
        # Sequence spaces are per (src, dst): a drop on 0->1 must not stall
        # deliveries on 1->0.
        cluster = faulty_cluster(FaultConfig(drop_prob=0.5, seed=0))
        t = cluster.network.transport
        t.rng = ScriptedRandom([0.0, 0.9, 0.9])  # only the very first copy drops
        log = []
        cluster.network.send(
            0, 1, MsgKind.ACK, lambda _seq: log.append("fwd"), (),
            cluster.config.handler_ack_ns,
        )
        cluster.network.send(
            1, 0, MsgKind.ACK, lambda _seq: log.append("rev"), (),
            cluster.config.handler_ack_ns,
        )
        cluster.engine.run()
        assert sorted(log) == ["fwd", "rev"]
        assert log[0] == "rev"  # undropped direction delivered first


class TestDrawOrder:
    def test_draw_sequence_is_pinned(self):
        """Every RNG draw of a short two-node exchange, in order.

        Per data copy: drop, dup, then one jitter per surviving copy
        (original first, duplicate second).  Per ack frame — a combined
        one included — drop, then jitter if it survives.  Stall at
        delivery.  A copy cut by an active partition draws nothing.
        """
        faults = FaultConfig(
            drop_prob=0.25, dup_prob=0.25, jitter_ns=10 * _US,
            stall_prob=0.25, stall_ns=5 * _US, seed=1,
            partitions=(PartitionScenario(
                "blip", frozenset({1}), t_start_ns=200 * _US,
                duration_ns=10 * _US,
            ),),
        )
        cluster, _ = make_cluster(
            n_nodes=2, faults=faults, combine=CombineConfig(enabled=True)
        )
        net = cluster.network
        rng = net.transport.rng = RecordingRandom(faults.seed)
        causes = []
        bus = EventBus()
        bus.subscribe(lambda ev: causes.append(ev.args["cause"]), ["frame.drop"])
        cluster.attach_bus(bus)
        cost = cluster.config.handler_ack_ns
        # Node 1's link serializes 1 KiB for 52us, so its acks for node
        # 0's three frames park and leave as one combined ack frame.
        net.send(1, 0, MsgKind.ACK, _ignore, (), cost, payload_bytes=1024)
        for _ in range(3):
            net.send(0, 1, MsgKind.ACK, _ignore, (), cost)
        cluster.engine.call_at(
            200 * _US, net.send, 0, 1, MsgKind.ACK, _ignore, (), cost
        )
        cluster.engine.run()

        R, J = ("random", None), ("randrange", 10 * _US + 1)
        assert rng.log == [
            R, R,           # 0.8us  0->1 #0: drop (lost), dup (no)
            R, R, J,        # 1.6us  0->1 #1: drop, dup, jitter
            R, R, J,        # 2.4us  0->1 #2: drop, dup, jitter
            R, R, J, J,     # 52us   1->0 #0: drop, dup (yes), jitter x2
            R, J,           # 53us   one combined ack for 0->1 #1, #2
            R,              # 62us   1->0 #0 delivered: stall
            R, J,           # 63us   ack for 1->0 #0
            R, J,           # 69us   ack for its duplicate
            R, R, J, J,     # 121us  0->1 #0 retransmit: dup (yes)
            R, R, R,        # 131us  0->1 #0, #1, #2 delivered: stall x3
            R, J,           # 132us  ack for 0->1 #0
            R, J,           # 140us  ack for its duplicate
            #                 201us  0->1 #3 cut by the partition: no draw
            R, R, J,        # 321us  0->1 #3 retransmit
            R,              # 336us  0->1 #3 delivered: stall
            R,              # 337us  ack for 0->1 #3: lost, no jitter
            R, R, J,        # 561us  0->1 #3 retransmit
            R, J,           # 572us  ack for the deduplicated retransmit
        ]
        assert causes == ["loss", "partition", "loss"]
        assert cluster.stats.total_combine_flushes == 1


# --------------------------------------------------------------------- #
# stalls
# --------------------------------------------------------------------- #
class TestStallWindows:
    def test_stall_inflates_handler_occupancy(self):
        base = faulty_cluster(FaultConfig(jitter_ns=1))  # transport, no stalls
        base.network.transport.rng = ScriptedRandom([0.9], ranges=[0])
        t_base = send_and_run(base)[0][1]

        stalled = faulty_cluster(
            FaultConfig(stall_prob=0.5, stall_ns=300 * _US, seed=0)
        )
        stalled.network.transport.rng = ScriptedRandom([0.0])  # always stall
        t_stall = send_and_run(stalled)[0][1]
        assert t_stall - t_base == 300 * _US


# --------------------------------------------------------------------- #
# end-to-end determinism under real fault storms
# --------------------------------------------------------------------- #
def storm_run(seed):
    cluster = faulty_cluster(
        FaultConfig(drop_prob=0.1, dup_prob=0.1, jitter_ns=20 * _US, seed=seed),
        n_nodes=4,
    )

    def program(n):
        blocks = list(range(4))
        yield from cluster.write_blocks(n, [n], phase=1)
        yield from cluster.barrier(n)
        yield from cluster.read_blocks(n, blocks, phase=2)
        yield from cluster.barrier(n)

    stats = cluster.run(
        {n: program(n) for n in range(4)}, audit=True, audit_each_barrier=True
    )
    return stats


class TestDeterminism:
    def test_same_seed_same_run(self):
        a, b = storm_run(5), storm_run(5)
        assert a.elapsed_ns == b.elapsed_ns
        assert a.reliability_summary() == b.reliability_summary()
        assert a.messages_by_kind() == b.messages_by_kind()

    def test_different_seed_different_faults(self):
        a, b = storm_run(5), storm_run(6)
        assert a.reliability_summary() != b.reliability_summary()

    def test_fault_storm_still_coherent(self):
        stats = storm_run(7)
        rel = stats.reliability_summary()
        assert rel["drops"] > 0 or rel["dups"] > 0  # the storm actually hit
        # audit=True in storm_run already proved coherence; spot-check the
        # summary surface too.
        assert "drops" in stats.summary()

    def test_fault_free_summary_has_no_reliability_keys(self):
        cluster, _ = make_cluster(n_nodes=2)
        cluster.run({0: _idle(), 1: _idle()})
        assert "drops" not in cluster.stats.summary()


# --------------------------------------------------------------------- #
# elapsed-time accounting under faults
# --------------------------------------------------------------------- #
class TestElapsedAccounting:
    def test_trailing_retransmit_timers_not_counted(self):
        # After the last program finishes, already-armed (stale) retransmit
        # timers still pop as no-ops; elapsed_ns must reflect program
        # completion, not the last timer.
        cluster = faulty_cluster(FaultConfig(jitter_ns=1, seed=0))

        def sender():
            cluster.network.send(
                0, 1, MsgKind.ACK, _ignore, (), cluster.config.handler_ack_ns
            )
            return
            yield

        stats = cluster.run({0: sender(), 1: _idle()})
        # The timer pops at ~retransmit_timeout; completion is much earlier.
        assert stats.elapsed_ns < FaultConfig().retransmit_timeout_ns
        assert cluster.engine.now >= FaultConfig().retransmit_timeout_ns
