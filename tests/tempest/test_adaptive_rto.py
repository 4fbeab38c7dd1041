"""Tests for the adaptive (Jacobson/Karels) retransmission timer.

The estimator tests drive ``_sample_rtt`` directly so the integer
arithmetic is checked against closed-form expectations; the end-to-end
tests build the scenario the feature exists for — bulk payloads whose
serialization alone exceeds the fixed timeout — and compare the two
timers on the simulator's spurious-retransmit ground truth.
"""

import pytest

from repro.tempest import FaultConfig, MsgKind
from repro.tempest.faults import _US
from tests.tempest.conftest import make_cluster
from tests.tempest.test_faults import ScriptedRandom, faulty_cluster, send_and_run


def adaptive_cluster(n_nodes=2, **fault_overrides):
    faults = FaultConfig(jitter_ns=1, seed=0, adaptive_rto=True,
                         **fault_overrides)
    cluster, _arr = make_cluster(n_nodes=n_nodes, faults=faults)
    return cluster


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #
class TestAdaptiveConfig:
    def test_adaptive_alone_does_not_engage_transport(self):
        # Like a bare seed: the flag without fault rates must not perturb
        # fault-free schedules.
        assert not FaultConfig(adaptive_rto=True).enabled
        cluster, _ = make_cluster(
            n_nodes=2, faults=FaultConfig(adaptive_rto=True)
        )
        assert cluster.network.transport is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rto_min_ns=0),
            dict(rto_min_ns=-1),
            dict(rto_min_ns=100 * _US, rto_max_ns=50 * _US),
        ],
    )
    def test_invalid_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(adaptive_rto=True, **kwargs)

    def test_floor_defaults_to_fixed_timeout(self):
        # The adaptive timer never fires earlier than the fixed timer it
        # replaces: with no explicit floor, rto_min is the fixed timeout.
        assert (FaultConfig(adaptive_rto=True).rto_min_ns
                == FaultConfig().retransmit_timeout_ns)
        assert (FaultConfig(retransmit_timeout_ns=77 * _US).rto_min_ns
                == 77 * _US)

    def test_initial_rto_is_clamped_fixed_timeout(self):
        # Before any sample a channel runs on the configured fixed timeout,
        # clamped into [rto_min, rto_max].
        cluster = adaptive_cluster(
            retransmit_timeout_ns=10 * _US, rto_min_ns=40 * _US
        )
        assert cluster.network.transport._initial_rto == 40 * _US
        cluster = adaptive_cluster(
            retransmit_timeout_ns=5_000 * _US, max_backoff_ns=5_000 * _US,
            rto_min_ns=40 * _US,
        )
        assert cluster.network.transport._initial_rto == FaultConfig().rto_max_ns

    def test_fixed_mode_ignores_bounds(self):
        cluster = faulty_cluster(FaultConfig(jitter_ns=1))
        t = cluster.network.transport
        assert not t.adaptive
        assert t._initial_rto == FaultConfig().retransmit_timeout_ns


# --------------------------------------------------------------------- #
# the estimator itself
# --------------------------------------------------------------------- #
class TestEstimator:
    def channel(self, **fault_overrides):
        t = adaptive_cluster(**fault_overrides).network.transport
        return t, t._channel(0, 1)

    def test_first_sample_seeds_srtt_and_rttvar(self):
        t, ch = self.channel()
        t._sample_rtt(ch, 50 * _US)
        assert ch.srtt_ns == 50 * _US
        assert ch.rttvar_ns == 25 * _US
        assert ch.rto_ns == 150 * _US    # srtt + 4 * rttvar

    def test_constant_rtt_converges_to_it(self):
        # Floor lowered so the raw estimator arithmetic is visible.
        t, ch = self.channel(rto_min_ns=1 * _US)
        for _ in range(200):
            t._sample_rtt(ch, 50 * _US)
        assert ch.srtt_ns == 50 * _US
        assert ch.rttvar_ns == 0         # variance decays to exactly zero
        assert ch.rto_ns == 50 * _US

    def test_rto_floor_clamps_small_rtts(self):
        t, ch = self.channel()
        for _ in range(200):
            t._sample_rtt(ch, 1 * _US)
        assert ch.rto_ns == FaultConfig().rto_min_ns

    def test_rto_ceiling_clamps_huge_rtts(self):
        t, ch = self.channel()
        t._sample_rtt(ch, 10_000 * _US)
        assert ch.rto_ns == FaultConfig().rto_max_ns

    def test_variance_widens_rto(self):
        # Alternating RTTs keep RTTVAR high: the RTO must stay above the
        # largest observed sample.
        t, ch = self.channel()
        for i in range(100):
            t._sample_rtt(ch, (50 if i % 2 else 150) * _US)
        assert ch.rto_ns > 150 * _US

    def test_channels_learn_independently(self):
        t = adaptive_cluster(n_nodes=3).network.transport
        a, b = t._channel(0, 1), t._channel(0, 2)
        t._sample_rtt(a, 50 * _US)
        assert b.srtt_ns == -1
        assert b.rto_ns == t._initial_rto


# --------------------------------------------------------------------- #
# sampling discipline over the real wire
# --------------------------------------------------------------------- #
class TestSampling:
    def test_clean_exchange_takes_a_sample(self):
        cluster = adaptive_cluster()
        send_and_run(cluster)
        ch = cluster.network.transport._channel(0, 1)
        assert ch.srtt_ns > 0
        assert ch.rto_ns >= FaultConfig().rto_min_ns

    def test_karn_retransmitted_frame_never_samples(self):
        # First copy drops; the ack answers the retransmit, which is
        # ambiguous, so the channel must still have no RTT estimate.
        cluster = faulty_cluster(
            FaultConfig(drop_prob=0.5, seed=0, adaptive_rto=True)
        )
        cluster.network.transport.rng = ScriptedRandom([0.0, 0.9, 0.9])
        log = send_and_run(cluster)
        assert len(log) == 1
        ch = cluster.network.transport._channel(0, 1)
        assert ch.srtt_ns == -1

    def test_sample_excludes_own_serialization(self):
        # A lone bulk frame and a lone header frame on an idle link see the
        # same variable path (wire + ack); their samples must agree even
        # though their serialization times differ by ~100 us.
        bulk = adaptive_cluster()
        bulk.network.send(
            0, 1, MsgKind.DATA, lambda _seq: None, (),
            bulk.config.handler_data_recv_ns, payload_bytes=2048,
        )
        bulk.engine.run()
        small = adaptive_cluster()
        send_and_run(small)
        srtt_bulk = bulk.network.transport._channel(0, 1).srtt_ns
        srtt_small = small.network.transport._channel(0, 1).srtt_ns
        assert abs(srtt_bulk - srtt_small) <= 2  # jitter draws only


# --------------------------------------------------------------------- #
# the headline scenario: bulk serialization vs the retransmit timer
# --------------------------------------------------------------------- #
def bulk_stream(adaptive, n_frames=4, payload=2048, gap=1_000 * _US):
    """Widely spaced bulk frames: each serializes for ~103 us, so the ack
    round trip (~124 us) overruns the fixed 120 us timer every time."""
    faults = FaultConfig(jitter_ns=1, seed=0, adaptive_rto=adaptive)
    cluster, _arr = make_cluster(n_nodes=2, faults=faults)
    log = []

    def send_one(i):
        cluster.network.send(
            0, 1, MsgKind.DATA, lambda _seq: log.append(i), (),
            cluster.config.handler_data_recv_ns, payload_bytes=payload,
        )

    for i in range(n_frames):
        cluster.engine.call_after(i * gap, send_one, i)
    cluster.engine.run()
    return cluster.stats, log


class TestBulkSerialization:
    def test_fixed_timer_fires_spuriously_on_every_bulk_frame(self):
        stats, log = bulk_stream(adaptive=False)
        assert log == [0, 1, 2, 3]                   # delivered exactly once
        rel = stats.reliability_summary()
        assert rel["spurious_retransmits"] == 4
        assert rel["retransmits"] == 4
        assert rel["drops"] == 0                     # nothing was ever lost

    def test_adaptive_timer_never_fires(self):
        stats, log = bulk_stream(adaptive=True)
        assert log == [0, 1, 2, 3]
        rel = stats.reliability_summary()
        assert rel["spurious_retransmits"] == 0
        assert rel["retransmits"] == 0

    def test_adaptive_strictly_beats_fixed(self):
        fixed, _ = bulk_stream(adaptive=False)
        adapt, _ = bulk_stream(adaptive=True)
        assert (adapt.total_spurious_retransmits
                < fixed.total_spurious_retransmits)


# --------------------------------------------------------------------- #
# determinism and coherence under adaptive timing
# --------------------------------------------------------------------- #
def adaptive_storm(seed):
    faults = FaultConfig(
        drop_prob=0.1, dup_prob=0.1, jitter_ns=20 * _US, seed=seed,
        adaptive_rto=True,
    )
    cluster, _arr = make_cluster(n_nodes=4, faults=faults)

    def program(n):
        yield from cluster.write_blocks(n, [n], phase=1)
        yield from cluster.barrier(n)
        yield from cluster.read_blocks(n, list(range(4)), phase=2)
        yield from cluster.barrier(n)

    return cluster.run(
        {n: program(n) for n in range(4)}, audit=True, audit_each_barrier=True
    )


class TestAdaptiveDeterminism:
    def test_same_seed_same_run(self):
        a, b = adaptive_storm(5), adaptive_storm(5)
        assert a.elapsed_ns == b.elapsed_ns
        assert a.reliability_summary() == b.reliability_summary()

    def test_storm_still_coherent(self):
        rel = adaptive_storm(7).reliability_summary()
        assert rel["drops"] > 0 or rel["dups"] > 0
