"""Node fail-stop survival: detection, checkpointing, rollback-recovery.

Four layers under test:

* config validation for :class:`CrashScenario` and the crash/checkpoint
  fields on :class:`FaultConfig`;
* the transport's liveness layer — hand-computed detection latency through
  keepalive give-up (no oracle), and the coalesced one-timer-per-channel
  invariant that keeps the detector O(channels);
* the degraded contract — a crash with no checkpoint (or a never-restart
  scenario) ends in ``completed=False`` with the dead node named;
* rollback-recovery — a mid-run crash with barrier checkpoints completes
  with final numerics byte-identical to the crash-free run, a clean
  end-of-run coherence audit, and deterministic stats across repeats.
"""

import numpy as np
import pytest

from repro.apps import jacobi
from repro.runtime.shmem import run_shmem
from repro.sim.engine import Engine
from repro.tempest import ClusterConfig, FaultConfig
from repro.tempest.faults import CrashScenario, PartitionScenario, _US
from repro.tempest.transport import OPEN, ReliableTransport
from tests.tempest.conftest import make_cluster, run_programs


def crash_faults(node=1, t_us=0, restart_us=None, **kwargs):
    restart_ns = None if restart_us is None else restart_us * _US
    return FaultConfig(
        crashes=(CrashScenario(node, t_us * _US, restart_ns),), **kwargs
    )


# --------------------------------------------------------------------- #
# config validation
# --------------------------------------------------------------------- #
class TestCrashScenario:
    def test_minimal(self):
        s = CrashScenario(2, 1000)
        assert not s.restarts and s.restart_delay_ns is None

    def test_restarting(self):
        s = CrashScenario(2, 1000, 500)
        assert s.restarts

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(node=-1, t_ns=0),
            dict(node=0, t_ns=-1),
            dict(node=0, t_ns=0, restart_delay_ns=-1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CrashScenario(**kwargs)

    def test_crashes_enable_faults(self):
        assert crash_faults().enabled

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError, match="^crashes names node 1 more than once"):
            FaultConfig(crashes=(CrashScenario(1, 0), CrashScenario(1, 50)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(heartbeat_interval_ns=0),
            dict(checkpoint_every=-1),
            dict(checkpoint_cost_ns_per_kb=-1),
        ],
    )
    def test_bad_tuning_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(crashes=(CrashScenario(0, 0),), **kwargs)


# --------------------------------------------------------------------- #
# liveness layer: detection latency and timer coalescing
# --------------------------------------------------------------------- #
class TestDetection:
    def test_hand_computed_detection_latency(self):
        """Keepalive give-up at interval + sum of backed-off probe timeouts.

        hb interval 200us, initial RTO 120us, max_retries 3: the probe
        transmits at 200us and retries at +120, +240, +480; the fourth
        fire (at +960 past the third) exhausts the budget, so the channel
        gives up at 200 + 120 + 240 + 480 + 960 = 2000us exactly.
        """
        faults = crash_faults(
            node=1, t_us=0,
            heartbeat_interval_ns=200 * _US,
            max_retries=3,
        )
        cluster, _ = make_cluster(n_nodes=2, faults=faults)
        stats = run_programs(cluster, n0=cluster.barrier(0))
        assert stats.completed is False
        [event] = stats.crash_events
        assert event["node"] == 1
        assert event["t_ns"] == 0
        assert event["detected_t_ns"] == 2_000 * _US
        assert event["recovered"] is False
        [cut] = stats.partition_events
        assert (cut["src"], cut["dst"]) == (0, 1)
        assert cut["t_ns"] == 2_000 * _US
        assert stats[0].net_gave_up == 1

    def test_degraded_report_names_crashed_node(self):
        faults = crash_faults(node=1, t_us=0, max_retries=2)
        cluster, _ = make_cluster(n_nodes=2, faults=faults)
        stats = run_programs(cluster, n0=cluster.barrier(0))
        assert stats.failure["crashed_nodes"] == [1]
        assert stats.failure["unreachable_nodes"] == [1]
        assert "node0" in stats.failure["stuck"]

    def test_crash_after_completion_is_benign(self):
        # The crash fires after every program finished: probes are already
        # suspended, nothing detects (or needs to detect) the death.
        faults = crash_faults(node=1, t_us=5_000)
        cluster, _ = make_cluster(n_nodes=2, faults=faults)
        stats = run_programs(cluster)  # all idle, finish at t=0
        assert stats.completed is True
        [event] = stats.crash_events
        assert event["detected_t_ns"] is None

    def test_one_timer_per_channel(self):
        """The retransmit/keepalive timer is coalesced: many outstanding
        frames on a channel hold exactly one armed engine timer, and
        full-mesh monitoring arms exactly one per directed channel."""
        from repro.tempest.stats import MsgKind

        faults = crash_faults(node=3, t_us=10**6)  # far-future crash
        cluster, _ = make_cluster(n_nodes=4, faults=faults)
        transport = cluster.network.transport
        transport.start_monitoring()
        n = cluster.n_nodes
        assert transport.armed_timers == n * (n - 1)
        for _ in range(40):
            cluster.network.send(
                0, 1, MsgKind.ACK, lambda _seq: None, (),
                cluster.config.handler_ack_ns,
            )
        # 40 unacked frames on 0->1: still one timer per channel.
        assert len(transport._channel(0, 1).unacked) >= 40
        assert transport.armed_timers == n * (n - 1)
        transport.probing = False
        cluster.engine.run()
        assert transport.in_flight == 0


    def test_armed_timer_never_later_than_any_deadline(self, monkeypatch):
        """After every engine event of a storm-plus-crash run: on each OPEN
        channel whose sender is alive, an armed timer is due no later than
        any unacked frame's deadline and (while probing) the keepalive.
        ``send`` relies on this to skip re-arming when its new frame's
        deadline is at or after the armed one."""
        transports = []
        init = ReliableTransport.__init__

        def recording_init(self, *args):
            init(self, *args)
            transports.append(self)

        checks = [0]

        def check():
            for t in transports:
                probing = t.probing
                for (src, _dst), ch in t._channels.items():
                    armed = ch.timer_deadline
                    if armed is None or ch.state is not OPEN or src in t._dead:
                        continue
                    assert all(armed <= f.deadline_ns for f in ch.unacked.values())
                    if probing and ch.hb_deadline is not None:
                        assert armed <= ch.hb_deadline
                    checks[0] += 1

        def checked(schedule, fn_at):
            # Same entry, same (time, seq): only the callback is wrapped.
            def wrapper(self, *args):
                args = list(args)
                fn = args[fn_at]

                def step(*fn_args):
                    fn(*fn_args)
                    check()

                args[fn_at] = step
                return schedule(self, *args)
            return wrapper

        monkeypatch.setattr(ReliableTransport, "__init__", recording_init)
        for name, fn_at in (("call_at", 1), ("call_chain", 1), ("call_now", 0)):
            monkeypatch.setattr(Engine, name, checked(getattr(Engine, name), fn_at))
        faults = crash_faults(
            node=2, t_us=3_000, restart_us=500, checkpoint_every=1,
            drop_prob=0.05, dup_prob=0.05, jitter_ns=10 * _US,
        )
        rec = run_shmem(_jacobi(), ClusterConfig(faults=faults), optimize=True)
        assert rec.completed and rec.stats.recovery_rollbacks == 1
        assert rec.stats.total_retransmits > 0
        assert checks[0] > 10_000


# --------------------------------------------------------------------- #
# rollback-recovery end to end
# --------------------------------------------------------------------- #
def _jacobi():
    return jacobi.build(n=32, iters=2)


class TestRecovery:
    def test_crash_recovers_with_identical_numerics(self):
        clean = run_shmem(_jacobi(), optimize=True)
        faults = crash_faults(node=2, t_us=3_000, restart_us=500,
                              checkpoint_every=1)
        rec = run_shmem(_jacobi(), ClusterConfig(faults=faults), optimize=True)
        assert rec.completed is True  # end-of-run audit ran clean
        for name in clean.arrays:
            assert np.array_equal(clean.arrays[name], rec.arrays[name])
        assert rec.stats.recovery_rollbacks == 1
        assert rec.stats.recovery_checkpoints > 0
        assert rec.stats.recovery_ns == 500 * _US
        [event] = rec.stats.crash_events
        assert event["recovered"] is True
        assert event["restart_t_ns"] == 3_500 * _US
        assert rec.stats.recovery_summary()["rollbacks"] == 1
        # Every node resumed just past its checkpoint barrier: the barrier
        # count restored at rollback ends where the crash-free run's does.
        assert rec.extra["barriers"] == clean.extra["barriers"]
        # Recovery costs real simulated time over the crash-free run.
        assert rec.elapsed_ns > clean.elapsed_ns

    def test_recovery_is_deterministic(self):
        faults = crash_faults(node=2, t_us=3_000, restart_us=500,
                              checkpoint_every=2)
        a = run_shmem(_jacobi(), ClusterConfig(faults=faults), optimize=True)
        b = run_shmem(_jacobi(), ClusterConfig(faults=faults), optimize=True)
        assert a.completed and b.completed
        assert a.stats == b.stats

    def test_crash_without_checkpoint_degrades(self):
        faults = crash_faults(node=2, t_us=3_000, restart_us=500)
        deg = run_shmem(_jacobi(), ClusterConfig(faults=faults), optimize=True)
        assert deg.completed is False
        assert deg.stats.failure["crashed_nodes"] == [2]

    def test_never_restart_degrades_despite_checkpoints(self):
        faults = crash_faults(node=2, t_us=3_000, checkpoint_every=1)
        deg = run_shmem(_jacobi(), ClusterConfig(faults=faults), optimize=True)
        assert deg.completed is False
        assert deg.stats.recovery_checkpoints > 0
        assert deg.stats.recovery_rollbacks == 0
        assert deg.stats.failure["crashed_nodes"] == [2]

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: ReliableTransport._on_arrival drops a copy at a dead "
        "endpoint without decrementing pending_acks, so every retransmit to "
        "a fail-stopped peer counts as spurious; the fix re-records the "
        "crash pins (ROADMAP item 3(b))"))
    def test_retransmits_to_a_dead_peer_are_not_spurious(self):
        # All 96 retransmits go to node 1 after it died: none of them had a
        # live copy or ack on the wire, so none is spurious.
        faults = crash_faults(node=1, t_us=300)
        deg = run_shmem(_jacobi(), ClusterConfig(n_nodes=4, faults=faults))
        assert deg.completed is False
        assert deg.stats.total_retransmits == 96
        assert deg.stats.total_spurious_retransmits == 0

    def test_crash_during_partition_still_recovers(self):
        # A healing partition window overlaps the crash: the transport must
        # recover both the parked partition traffic (wholesale, via the
        # rollback channel reset) and the dead node.
        cut = PartitionScenario(
            "overlap", frozenset({1}), t_start_ns=1_000 * _US,
            duration_ns=1_500 * _US,
        )
        clean = run_shmem(_jacobi(), optimize=True)
        faults = FaultConfig(
            partitions=(cut,),
            crashes=(CrashScenario(2, 3_000 * _US, 500 * _US),),
            checkpoint_every=1,
        )
        rec = run_shmem(_jacobi(), ClusterConfig(faults=faults), optimize=True)
        assert rec.completed is True
        for name in clean.arrays:
            assert np.array_equal(clean.arrays[name], rec.arrays[name])
        assert rec.stats.recovery_rollbacks >= 1

    def test_checkpoint_cost_defers_completion(self):
        # Nonzero modeled write cost must show up as simulated time.
        cheap = crash_faults(node=2, t_us=3_000, restart_us=500,
                             checkpoint_every=1, checkpoint_cost_ns_per_kb=0)
        dear = crash_faults(node=2, t_us=3_000, restart_us=500,
                            checkpoint_every=1,
                            checkpoint_cost_ns_per_kb=10_000)
        a = run_shmem(_jacobi(), ClusterConfig(faults=cheap), optimize=True)
        b = run_shmem(_jacobi(), ClusterConfig(faults=dear), optimize=True)
        assert a.completed and b.completed
        assert b.elapsed_ns > a.elapsed_ns
