"""Tests for the control-message combining layer.

The unit tests drive ``Network.send`` directly so each flush trigger
(cold-eager send, hot-channel parking, the size cap, hold timer,
link-idle flush, non-combinable flush-ahead) is exercised by name.  The
app-level tests then prove the two properties the optimization must
keep: identical numerics (with a clean coherence audit) and a real
reduction in header-only wire traffic on invalidation-heavy apps.
"""

from collections import Counter

import pytest

from repro.apps import APPS
from repro.runtime import run_shmem, run_uniproc
from repro.sim import SimulationError
from repro.tempest import ClusterConfig, MsgKind
from repro.tempest.config import US, CombineConfig
from repro.tempest.network import (
    COMBINE_MAX_MSGS,
    COMBINE_MAX_WAIT_NS,
    COMBINE_SLOT_BYTES,
    HEADER_BYTES,
)
from tests.tempest.conftest import make_cluster

#: Kinds that travel as bare headers and are marked combinable somewhere
#: in the protocol stack (transport acks are counted separately).
HEADER_KINDS = (
    MsgKind.INV,
    MsgKind.ACK,
    MsgKind.BARRIER_ARRIVE,
    MsgKind.BARRIER_RELEASE,
    MsgKind.SELF_INV,
    MsgKind.UPDATE_ACK,
)

#: Cheap per-app parameters (mirrors tests/apps/test_apps.py).
SMALL = {
    "pde": dict(n=24, iters=2),
    "shallow": dict(rows=65, cols=33, iters=3),
    "grav": dict(n=17, iters=2),
    "lu": dict(n=48),
    "cg": dict(rows=40, cols=80, iters=8),
    "jacobi": dict(n=64, iters=3),
}

CFG = ClusterConfig(n_nodes=4)
CFG_COMBINE = ClusterConfig(n_nodes=4, combine=CombineConfig(enabled=True))


def combining_cluster(n_nodes=2):
    combine = CombineConfig(enabled=True)
    cluster, _arr = make_cluster(n_nodes=n_nodes, combine=combine)
    return cluster


def send_burst(cluster, n, src=0, dst=1, kind=MsgKind.ACK, combinable=True,
               log=None, tag=None):
    """Back-to-back header-only sends; returns the delivery log."""
    log = log if log is not None else []
    for i in range(n):
        label = i if tag is None else tag
        cluster.network.send(
            src, dst, kind,
            lambda _seq, label=label: log.append((label, cluster.engine.now)), (),
            cluster.config.handler_ack_ns,
            combinable=combinable,
        )
    return log


def header_only_frames(stats):
    """Control frames on the wire: lone header-only messages + combined."""
    kinds = stats.messages_by_kind()
    return (
        sum(kinds.get(k, 0) for k in HEADER_KINDS)
        + kinds.get(MsgKind.COMBINED, 0)
    )


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #
class TestCombineConfig:
    def test_disabled_by_default(self):
        assert not CombineConfig().enabled
        assert not ClusterConfig().combine.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_msgs=1),
            dict(max_msgs=0),
            dict(slot_bytes=0),
            dict(max_wait_ns=0),
            dict(max_wait_ns=-1),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        # The cap, slot size and hold window are module constants, so a
        # config spelling any of them is refused, whatever the value.
        with pytest.raises(TypeError, match="unexpected keyword"):
            CombineConfig(enabled=True, **kwargs)

    def test_disabled_network_has_no_machinery(self):
        cluster, _ = make_cluster(n_nodes=2)
        assert not cluster.network.combining
        assert not hasattr(cluster.network, "_pending")


# --------------------------------------------------------------------- #
# flush triggers, one by one
# --------------------------------------------------------------------- #
class TestFlushTriggers:
    def test_burst_combines_behind_eager_leader(self):
        # First frame on a cold channel goes out eagerly and heats the
        # channel; the three followers park and ride one combined frame.
        cluster = combining_cluster()
        log = send_burst(cluster, 4)
        cluster.engine.run()
        assert [i for i, _t in log] == [0, 1, 2, 3]  # send order preserved
        kinds = cluster.stats.messages_by_kind()
        assert kinds[MsgKind.ACK] == 1          # the eager leader
        assert kinds[MsgKind.COMBINED] == 1     # the followers, together
        assert cluster.stats.total_combine_flushes == 1
        assert sum(n.msgs_combined[MsgKind.ACK] for n in cluster.stats.nodes) == 3

    def test_combined_frame_wire_bytes(self):
        # One 16-byte leader + one combined frame of header + 3 slots.
        cluster = combining_cluster()
        send_burst(cluster, 4)
        cluster.engine.run()
        assert cluster.stats[0].bytes_sent == (
            HEADER_BYTES + (HEADER_BYTES + 3 * COMBINE_SLOT_BYTES)
        )

    def test_max_msgs_cap_flushes_eagerly(self):
        # Leader, then every 8 followers flush the moment they fill the
        # buffer: both combined frames are out before the engine runs.
        cluster = combining_cluster()
        n = 1 + 2 * COMBINE_MAX_MSGS
        log = send_burst(cluster, n)
        assert cluster.stats.total_combine_flushes == 2
        assert cluster.stats.total_msgs_combined == 2 * COMBINE_MAX_MSGS
        cluster.engine.run()
        assert [i for i, _t in log] == list(range(n))
        kinds = cluster.stats.messages_by_kind()
        assert kinds[MsgKind.ACK] == 1
        assert kinds[MsgKind.COMBINED] == 2

    def test_lone_parked_frame_travels_as_its_own_kind(self):
        # A follower with no channel-mates degenerates to a normal single
        # message: no combined frame, no combining counters.
        cluster = combining_cluster()
        send_burst(cluster, 2)
        cluster.engine.run()
        kinds = cluster.stats.messages_by_kind()
        assert kinds[MsgKind.ACK] == 2
        assert MsgKind.COMBINED not in kinds
        assert cluster.stats.total_combine_flushes == 0
        assert cluster.stats.total_msgs_combined == 0

    def test_hold_timer_bounds_parked_latency(self):
        # A follower parked on a hot-but-idle channel leaves on the hold
        # timer, COMBINE_MAX_WAIT_NS after parking -- never later.
        cluster = combining_cluster()
        log = send_burst(cluster, 1)               # heats the channel at t=0
        cluster.engine.call_after(
            20 * US, lambda: send_burst(cluster, 1, log=log, tag=1)
        )
        cluster.engine.run()
        wait = COMBINE_MAX_WAIT_NS
        # Parked at 20us, flushed at 20us + max_wait, delivered after the
        # usual wire costs; it must not have left before the timer.
        assert log[1][1] >= 20 * US + wait
        assert log[1][1] < 20 * US + wait + 30 * US
        assert cluster.stats.messages_by_kind()[MsgKind.ACK] == 2

    def test_noncombinable_send_flushes_parked_frames_ahead(self):
        # Per-channel FIFO: a parked control frame must reach the link
        # before any later non-combinable message to the same destination.
        cluster = combining_cluster()
        log = send_burst(cluster, 2)               # leader + one parked
        cluster.network.send(
            0, 1, MsgKind.GRANT,
            lambda _seq: log.append(("grant", cluster.engine.now)), (),
            cluster.config.handler_ack_ns,
        )
        cluster.engine.run()
        assert [i for i, _t in log] == [0, 1, "grant"]

    def test_loopback_never_combines(self):
        cluster = combining_cluster()
        log = send_burst(cluster, 3, src=0, dst=0)
        cluster.engine.run()
        assert len(log) == 3
        kinds = cluster.stats.messages_by_kind()
        assert kinds[MsgKind.ACK] == 3
        assert MsgKind.COMBINED not in kinds

    def test_combinable_payload_rejected(self):
        cluster = combining_cluster()
        with pytest.raises(SimulationError, match="header-only"):
            cluster.network.send(
                0, 1, MsgKind.DATA, lambda _seq: None, (),
                cluster.config.handler_ack_ns,
                payload_bytes=64, combinable=True,
            )

    def test_cold_channel_after_quiet_spell_sends_eagerly(self):
        # Once the hold window passes with no traffic the channel cools; the
        # next lone control frame again pays zero combining latency.
        cluster = combining_cluster()
        log = send_burst(cluster, 1)
        cluster.engine.call_after(
            100 * US, lambda: send_burst(cluster, 1, log=log, tag=1)
        )
        cluster.engine.run()
        # Same uncombined delivery latency for both isolated frames.
        assert log[1][1] - 100 * US == log[0][1]
        assert MsgKind.COMBINED not in cluster.stats.messages_by_kind()


# --------------------------------------------------------------------- #
# application-level: numerics, audit, and actual traffic reduction
# --------------------------------------------------------------------- #
class TestAppsUnderCombining:
    @pytest.mark.parametrize("app", sorted(SMALL))
    def test_numerics_and_audit_unchanged(self, app):
        prog = APPS[app].program(**SMALL[app])
        base = run_shmem(prog, CFG)
        comb = run_shmem(prog, CFG_COMBINE)     # end-of-run audit built in
        comb.assert_same_numerics(base)
        assert comb.stats.total_messages <= base.stats.total_messages

    @pytest.mark.parametrize("app", ["grav", "jacobi", "lu", "pde"])
    def test_message_conservation(self, app):
        # Where combining does not shift protocol timing (hit/miss
        # patterns), every header-only message is accounted for: it went
        # alone or it rode a combined frame.
        prog = APPS[app].program(**SMALL[app])
        base = run_shmem(prog, CFG).stats.messages_by_kind()
        comb_run = run_shmem(prog, CFG_COMBINE).stats
        comb = comb_run.messages_by_kind()
        absorbed = sum((n.msgs_combined for n in comb_run.nodes), Counter())
        for kind in HEADER_KINDS:
            assert comb.get(kind, 0) + absorbed.get(kind, 0) == base.get(kind, 0)

    def test_invalidation_heavy_app_sheds_20_percent_of_control_frames(self):
        # The acceptance bar: unoptimized jacobi (all boundary traffic goes
        # through INV/ACK storms) puts >= 20% fewer header-only frames on
        # the wire with combining enabled.
        prog = APPS["jacobi"].program(**SMALL["jacobi"])
        base = run_shmem(prog, CFG)
        comb = run_shmem(prog, CFG_COMBINE)
        comb.assert_same_numerics(base)
        before = header_only_frames(base.stats)
        after = header_only_frames(comb.stats)
        assert after <= 0.8 * before
        assert comb.stats.total_msgs_combined > 0

    def test_combining_is_deterministic(self):
        prog = APPS["jacobi"].program(**SMALL["jacobi"])
        a = run_shmem(prog, CFG_COMBINE)
        b = run_shmem(prog, CFG_COMBINE)
        assert a.stats.elapsed_ns == b.stats.elapsed_ns
        assert a.stats.messages_by_kind() == b.stats.messages_by_kind()
        assert a.stats.combining_summary() == b.stats.combining_summary()

    def test_disabled_runs_report_no_combining(self):
        prog = APPS["jacobi"].program(**SMALL["jacobi"])
        base = run_shmem(prog, CFG)
        assert MsgKind.COMBINED not in base.stats.messages_by_kind()
        assert base.stats.combining_summary() == {
            "msgs_combined": 0, "combine_flushes": 0,
        }
        assert "msgs_combined" not in base.stats.summary()

    def test_combining_with_optimized_run(self):
        # The fast path composes with the compiler optimizations and the
        # uniprocessor reference numerics.
        prog = APPS["pde"].program(**SMALL["pde"])
        uni = run_uniproc(prog, CFG)
        comb = run_shmem(prog, CFG_COMBINE, optimize=True, bulk=True)
        comb.assert_same_numerics(uni)
