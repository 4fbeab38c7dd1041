"""Per-link fault profiles, partition scenarios, and partition survival.

Three layers under test:

* config validation for :class:`LinkFaultConfig` / :class:`PartitionScenario`
  and their composition into :class:`FaultConfig`;
* transport mechanics — private RNG streams per overridden link, the
  deterministic (draw-free) partition cut, give-up/park/heal on a channel,
  and the organic-loss edge cases (drop+dup on one wire copy, ack storms);
* cluster/runtime recovery — a healed partition drains and re-proves
  coherence, a permanent one ends in a *degraded* result that preserves
  every counter accumulated before the give-up, instead of a traceback.
"""

import pytest

from repro.tempest import (
    ClusterConfig,
    FaultConfig,
    LinkFaultConfig,
    MsgKind,
    PartitionScenario,
)
from repro.tempest.faults import _US
from repro.tempest.transport import OPEN, PARTITIONED
from tests.tempest.conftest import make_cluster
from tests.tempest.test_faults import ScriptedRandom, send_and_run


def faulty_cluster(faults, n_nodes=2):
    cluster, _arr = make_cluster(n_nodes=n_nodes, faults=faults)
    return cluster


def one_partition(nodes, start_us, dur_us, name="cut", **fault_kwargs):
    """FaultConfig with a single partition window (durations in us)."""
    scenario = PartitionScenario(
        name,
        frozenset(nodes),
        t_start_ns=start_us * _US,
        duration_ns=None if dur_us is None else dur_us * _US,
    )
    return FaultConfig(partitions=(scenario,), **fault_kwargs)


# --------------------------------------------------------------------- #
# config validation
# --------------------------------------------------------------------- #
class TestLinkFaultConfig:
    def test_minimal_override(self):
        lf = LinkFaultConfig(3, 0, drop_prob=0.3)
        assert lf.key == (3, 0)
        assert lf.dup_prob is None  # inherit the uniform value

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(src=1, dst=1, drop_prob=0.1),      # loopback is dead config
            dict(src=-1, dst=0, drop_prob=0.1),
            dict(src=0, dst=1, drop_prob=1.0),
            dict(src=0, dst=1, dup_prob=-0.5),
            dict(src=0, dst=1, jitter_ns=-1),
            dict(src=0, dst=1, stall_ns=-1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinkFaultConfig(**kwargs)

    def test_profiles_enable_faults(self):
        faults = FaultConfig(link_faults=(LinkFaultConfig(0, 1, drop_prob=0.2),))
        assert faults.enabled
        assert faults.link_overrides() == {(0, 1): faults.link_faults[0]}

    def test_duplicate_profile_rejected(self):
        with pytest.raises(ValueError, match=r"^link_faults has two profiles for link \(0, 1\)"):
            FaultConfig(
                link_faults=(
                    LinkFaultConfig(0, 1, drop_prob=0.2),
                    LinkFaultConfig(0, 1, dup_prob=0.2),
                )
            )

    def test_effective_stall_validated(self):
        # stall_prob on the link, no stall_ns anywhere: dead config.
        with pytest.raises(ValueError, match="stall_ns"):
            FaultConfig(link_faults=(LinkFaultConfig(0, 1, stall_prob=0.5),))
        # ...but a uniform stall_ns makes the override complete.
        FaultConfig(
            stall_prob=0.1, stall_ns=100,
            link_faults=(LinkFaultConfig(0, 1, stall_prob=0.5),),
        )


class TestPartitionScenario:
    def test_window_semantics(self):
        s = PartitionScenario("s", {1, 2}, t_start_ns=100, duration_ns=50)
        assert not s.active_at(99)
        assert s.active_at(100)
        assert s.active_at(149)
        assert not s.active_at(150)      # heal instant is *out* of the window
        assert s.heals and s.heal_ns == 150

    def test_never_healing(self):
        s = PartitionScenario("s", {0})
        assert s.active_at(10**12)
        assert not s.heals and s.heal_ns is None

    def test_separates_is_boundary_crossing(self):
        s = PartitionScenario("s", {1, 2})
        assert s.separates(0, 1) and s.separates(2, 3)
        assert not s.separates(1, 2)     # both inside
        assert not s.separates(0, 3)     # both outside

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="s", nodes=frozenset()),
            dict(name="s", nodes={-1}),
            dict(name="s", nodes={0}, t_start_ns=-1),
            dict(name="s", nodes={0}, duration_ns=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PartitionScenario(**kwargs)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="^partitions has duplicate scenario names"):
            FaultConfig(
                partitions=(
                    PartitionScenario("s", {0}),
                    PartitionScenario("s", {1}),
                )
            )

    def test_partitions_enable_faults(self):
        assert one_partition({1}, 0, None).enabled


# --------------------------------------------------------------------- #
# per-link profiles: private streams, uniform links untouched
# --------------------------------------------------------------------- #
class TestLinkProfiles:
    def test_override_bypasses_uniform_stream(self):
        # The uniform stream is scripted to DROP every draw, but both
        # directions of the 0<->1 pair carry a clean override: data and ack
        # resolve through private profiles with zero rates (no draws at
        # all), so delivery must succeed on the first copy.
        faults = FaultConfig(
            drop_prob=0.9, seed=0,
            link_faults=(
                LinkFaultConfig(0, 1, drop_prob=0.0),
                LinkFaultConfig(1, 0, drop_prob=0.0),
            ),
        )
        cluster = faulty_cluster(faults)
        cluster.network.transport.rng = ScriptedRandom([0.0])  # poison pill
        log = send_and_run(cluster)
        assert len(log) == 1
        assert cluster.stats.total_drops == 0
        assert cluster.stats.total_retransmits == 0

    def test_unused_override_never_perturbs_other_links(self):
        # A profile on a link that carries no traffic must leave every
        # other link's draw sequence — and therefore the whole schedule —
        # byte-identical.
        def run(extra_links):
            faults = FaultConfig(
                drop_prob=0.3, dup_prob=0.2, jitter_ns=20 * _US, seed=9,
                link_faults=extra_links,
            )
            cluster = faulty_cluster(faults, n_nodes=3)
            log = send_and_run(cluster, n_messages=4)
            return log, cluster.stats.reliability_summary()

        base_log, base_rel = run(())
        prof_log, prof_rel = run((LinkFaultConfig(1, 2, drop_prob=0.9),))
        assert base_log == prof_log
        assert base_rel == prof_rel

    def test_overridden_link_has_private_seeded_stream(self):
        # Same config, two runs: the override's private stream is seeded
        # from (seed, src, dst), so the flaky link's behavior replays.
        def run():
            faults = FaultConfig(
                seed=3,
                link_faults=(LinkFaultConfig(0, 1, drop_prob=0.5),),
            )
            cluster = faulty_cluster(faults)
            log = send_and_run(cluster, n_messages=6)
            return log, cluster.stats.reliability_summary()

        a, b = run(), run()
        assert a == b
        assert a[1]["drops"] > 0  # the profile actually bit


# --------------------------------------------------------------------- #
# partition cut, give-up, park, heal (transport level)
# --------------------------------------------------------------------- #
class TestPartitionTransport:
    def test_frame_cut_parks_then_heals_and_delivers(self):
        # Window [0, 1000us): the frame's only wire copy is cut, the first
        # retransmit timer fires inside the window and parks the channel
        # immediately (no retry storm), the heal drains it.
        cluster = faulty_cluster(one_partition({1}, 0, 1000))
        log = send_and_run(cluster)
        assert len(log) == 1
        assert log[0][1] >= 1000 * _US            # delivered post-heal
        assert cluster.stats.total_drops == 1     # the cut copy
        assert cluster.stats.total_retransmits == 0
        assert cluster.stats.total_gave_up == 1
        t = cluster.network.transport
        assert t.parked_frames == 0
        assert t.partitioned_channels() == []
        assert t._channel(0, 1).state is OPEN
        (event,) = cluster.stats.partition_events
        assert event["scenario"] == "cut"
        assert event["healed"] is True

    def test_partition_consumes_no_rng_draws(self):
        # A scenario isolating a node nobody talks to must leave the run
        # byte-identical: cuts are pure functions of simulated time.
        def run(faults):
            cluster = faulty_cluster(faults, n_nodes=3)
            log = send_and_run(cluster, n_messages=5)
            return log, cluster.stats.reliability_summary()

        base = run(FaultConfig(drop_prob=0.3, jitter_ns=15 * _US, seed=4))
        cut = run(
            FaultConfig(
                drop_prob=0.3, jitter_ns=15 * _US, seed=4,
                partitions=(PartitionScenario("idle", {2}),),
            )
        )
        assert base == cut

    def test_never_healing_partition_parks_forever(self):
        cluster = faulty_cluster(one_partition({1}, 0, None, max_retries=3))
        log = send_and_run(cluster, n_messages=2)
        assert log == []
        t = cluster.network.transport
        assert t._channel(0, 1).state is PARTITIONED
        assert t.partitioned_channels() == [{"src": 0, "dst": 1, "parked": 2}]
        assert cluster.stats.total_gave_up == 1
        (event,) = cluster.stats.partition_events
        assert event["scenario"] == "cut" and event["healed"] is False

    def test_send_on_partitioned_channel_parks_without_wire_traffic(self):
        cluster = faulty_cluster(one_partition({1}, 0, None))
        send_and_run(cluster)                      # first frame gives up
        t = cluster.network.transport
        assert t.parked_frames == 1
        drops_before = cluster.stats.total_drops
        log = send_and_run(cluster)                # second send: parks cold
        assert log == []
        assert t.parked_frames == 2
        assert cluster.stats.total_drops == drops_before  # never hit the wire
        assert cluster.stats.total_gave_up == 1    # still one give-up event

    def test_heal_drains_in_sequence_order(self):
        cluster = faulty_cluster(one_partition({1}, 0, 800))
        log = send_and_run(cluster, n_messages=3)
        assert [i for i, _t in log] == [0, 1, 2]
        assert cluster.network.transport.parked_frames == 0

    def test_ack_crossing_partition_is_cut(self):
        # Window opens after the data frame is delivered but before its ack
        # survives: node 1's ack (1->0) is cut; the retransmit timer then
        # fires inside the window and parks; the heal re-sends and the
        # receiver dedups.  Handler still runs exactly once.
        # The 16 B header serializes in <1 us, so a window opening at 5 us
        # lets the data frame through and cuts the ack behind it.
        cluster = faulty_cluster(one_partition({1}, 5, 2000))
        log = send_and_run(cluster)
        assert len(log) == 1
        assert cluster.stats.total_gave_up == 1
        assert cluster.stats.total_dups == 1       # post-heal re-send deduped
        assert cluster.network.transport.parked_frames == 0


# --------------------------------------------------------------------- #
# organic-loss edge cases (no scenario to blame)
# --------------------------------------------------------------------- #
class TestOrganicEdgeCases:
    def test_drop_and_dup_on_same_wire_copy(self):
        # One wire copy draws BOTH faults: the original is dropped and the
        # duplicate survives — delivery is exactly-once with no retransmit.
        cluster = faulty_cluster(FaultConfig(drop_prob=0.5, dup_prob=0.5, seed=0))
        cluster.network.transport.rng = ScriptedRandom([0.0, 0.0, 0.9])
        log = send_and_run(cluster)
        assert len(log) == 1
        assert cluster.stats.total_drops == 1
        assert cluster.stats.total_dups == 0       # receiver saw one copy
        assert cluster.stats.total_retransmits == 0
        assert cluster.network.transport.in_flight == 0

    def test_ack_loss_storm_gives_up_after_delivery(self):
        # Every data copy lands, every ack dies: the receiver ran the
        # handler (exactly once) but the sender exhausts its budget and
        # parks — the historic TransportError must not resurface.
        cluster = faulty_cluster(
            FaultConfig(drop_prob=0.9, seed=0, max_retries=2)
        )
        # Alternating draws: data passes (0.95), its ack drops (0.0).
        cluster.network.transport.rng = ScriptedRandom(
            [0.95, 0.0, 0.95, 0.0, 0.95, 0.0, 0.0]
        )
        log = send_and_run(cluster)
        assert len(log) == 1                       # delivered exactly once
        assert cluster.stats.total_dups == 2       # both retransmits deduped
        assert cluster.stats.total_retransmits == 2
        assert cluster.stats.total_gave_up == 1
        t = cluster.network.transport
        assert t.partitioned_channels() == [{"src": 0, "dst": 1, "parked": 1}]
        (event,) = cluster.stats.partition_events
        assert event["scenario"] is None           # organic: nothing to heal


# --------------------------------------------------------------------- #
# cluster-level recovery: healed runs complete, permanent ones degrade
# --------------------------------------------------------------------- #
def partition_workload(cluster, n_nodes):
    def program(n):
        blocks = list(range(n_nodes))
        yield from cluster.write_blocks(n, [n], phase=1)
        yield from cluster.barrier(n)
        yield from cluster.read_blocks(n, blocks, phase=2)
        yield from cluster.barrier(n)

    return {n: program(n) for n in range(n_nodes)}


class TestClusterRecovery:
    def test_healed_partition_completes_with_clean_audit(self):
        cluster = faulty_cluster(one_partition({1}, 0, 1500), n_nodes=4)
        stats = cluster.run(partition_workload(cluster, 4), audit=True)
        assert stats.completed
        assert stats.total_gave_up > 0             # the window actually bit
        assert stats.partition_events
        assert all(e["healed"] for e in stats.partition_events)
        assert cluster.network.transport.parked_frames == 0

    def test_permanent_partition_degrades_instead_of_raising(self):
        cluster = faulty_cluster(
            one_partition({1}, 0, None, max_retries=3), n_nodes=4
        )
        stats = cluster.run(partition_workload(cluster, 4))
        assert not stats.completed
        failure = stats.failure
        assert failure is not None
        assert failure["unreachable_nodes"] == [1]
        assert stats.total_gave_up > 0
        assert failure["parked_frames"] > 0
        assert all(
            ch["parked"] > 0 for ch in failure["partitioned_channels"]
        )
        # Everybody blocks on the lost node eventually (barrier).
        assert set(failure["stuck"]) == {f"node{i}" for i in range(4)}

    def test_degraded_stats_preserve_counters_up_to_give_up(self):
        # Regression: the degraded path must return the stats accumulated
        # before the give-up, not a zeroed shell.  Work wholly outside the
        # partition (node 2 writing its own block) must be fully counted.
        cluster = faulty_cluster(
            one_partition({1}, 0, None, max_retries=3), n_nodes=4
        )
        stats = cluster.run(partition_workload(cluster, 4))
        assert not stats.completed
        assert stats.total_messages > 0
        assert stats.elapsed_ns > 0
        assert stats[1].net_gave_up > 0            # the cut sender recorded it
        per_node_msgs = [sum(s.messages.values()) for s in stats.nodes]
        assert any(per_node_msgs)                  # counters survived
        assert stats.summary()["completed"] is False
        assert stats.summary()["partition_events"] == len(stats.partition_events)

    def test_genuine_deadlock_still_raises(self):
        # No give-up, no partition: a node stuck at a barrier nobody else
        # reaches must stay a loud SimulationError.
        from repro.sim import SimulationError

        cluster = faulty_cluster(FaultConfig(jitter_ns=1, seed=0), n_nodes=2)

        def lonely():
            yield from cluster.barrier(0)

        def idle():
            return
            yield  # pragma: no cover

        with pytest.raises(SimulationError, match="deadlock"):
            cluster.run({0: lonely(), 1: idle()})


# --------------------------------------------------------------------- #
# runtime surface: RunResult contract
# --------------------------------------------------------------------- #
class TestRunResultContract:
    def make(self, faults):
        from repro.runtime import run_shmem
        from tests.runtime.conftest import jacobi_program

        cfg = ClusterConfig(n_nodes=4, faults=faults or FaultConfig())
        return run_shmem(jacobi_program(n=32, iters=2), cfg)

    def test_healed_partition_run_matches_fault_free_numerics(self):
        clean = self.make(None)
        healed = self.make(one_partition({1}, 200, 2500, max_retries=6))
        assert healed.completed and clean.completed
        healed.assert_same_numerics(clean)
        events = healed.stats.partition_events
        assert events and all(e["healed"] for e in events)
        assert {e["scenario"] for e in events} == {"cut"}

    def test_permanent_partition_returns_degraded_result(self):
        result = self.make(one_partition({1}, 200, None, max_retries=3))
        assert result.completed is False
        assert result.summary()["completed"] is False
        failure = result.stats.failure
        assert failure["unreachable_nodes"] == [1]
        assert failure["residual_violations"] == []  # survivors coherent
        # Partial per-node counters made it through the RunResult.
        assert result.stats.total_messages > 0
        assert result.stats.total_misses > 0
        assert result.stats[1].net_gave_up + result.stats[0].net_gave_up > 0
