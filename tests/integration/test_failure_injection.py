"""Failure injection: broken compiler schedules must be *caught*, loudly.

The value of the contract/validator machinery is that a buggy planner can
never silently compute garbage.  Each test here hand-builds a schedule
with one of the paper's preconditions removed and asserts the specific
detector that fires.
"""

import pytest

from repro.sim import SimulationError
from repro.tempest import (
    AccessTag,
    Cluster,
    ClusterConfig,
    Distribution,
    HomePolicy,
    SharedMemory,
)
from repro.tempest.directory import StaleReadError
from repro.tempest.extensions import ContractViolation
from tests.tempest.conftest import run_programs


def build(home_policy=HomePolicy.NODE0):
    cfg = ClusterConfig(n_nodes=3)
    mem = SharedMemory(cfg, home_policy=home_policy)
    a = mem.alloc("a", (16, 3), Distribution.block(3))
    return Cluster(cfg, mem), a


class TestMissingInvalidate:
    def test_stale_hit_detected_next_phase(self):
        # The receiver "forgets" implicit_invalidate; the producer's next
        # (silent, exclusive) write leaves it stale, and the next read hits.
        cl, a = build()
        b = a.block_of_element((0, 1))

        def producer():
            yield from cl.ext.mk_writable(1, [b])
            yield from cl.barrier(1)
            yield from cl.write_blocks(1, [b], phase=1)
            yield from cl.ext.send_blocks(1, [b], 2)
            yield from cl.barrier(1)
            yield from cl.write_blocks(1, [b], phase=2)  # silent: exclusive
            yield from cl.barrier(1)

        def consumer():
            yield from cl.ext.implicit_writable(2, [b])
            yield from cl.barrier(2)
            yield from cl.ext.ready_to_recv(2, 1)
            yield from cl.read_blocks(2, [b], phase=1)
            # BUG: no implicit_invalidate here.
            yield from cl.barrier(2)
            yield from cl.barrier(2)
            yield from cl.read_blocks(2, [b], phase=3)  # stale hit!

        def home():
            yield from cl.barrier(0)
            yield from cl.barrier(0)
            yield from cl.barrier(0)

        with pytest.raises(StaleReadError):
            run_programs(cl, n0=home(), n1=producer(), n2=consumer())


class TestMissingImplicitWritable:
    def test_unprepared_receiver_detected_at_arrival(self):
        cl, a = build()
        b = a.block_of_element((0, 1))

        def producer():
            yield from cl.ext.mk_writable(1, [b])
            yield from cl.ext.send_blocks(1, [b], 2)

        with pytest.raises(ContractViolation, match="implicit_writable"):
            run_programs(cl, n1=producer())


class TestMissingBarrier:
    def test_send_racing_implicit_writable_detected(self):
        # Without the barrier between steps 2 and 3, the data message can
        # arrive before the receiver's tags are set.
        cl, a = build()
        b = a.block_of_element((0, 1))

        def producer():
            yield from cl.ext.mk_writable(1, [b])
            # BUG: no synchronization with the receiver.
            yield from cl.ext.send_blocks(1, [b], 2)

        def consumer():
            yield from cl.compute(2, 10_000_000)  # receiver is late
            yield from cl.ext.implicit_writable(2, [b])
            yield from cl.ext.ready_to_recv(2, 1)

        with pytest.raises(ContractViolation, match="missing barrier"):
            run_programs(cl, n1=producer(), n2=consumer())


class TestStaleSender:
    def test_sender_without_current_copy_detected(self):
        # A sender that skipped mk_writable after another node rewrote the
        # block would push stale bytes; the send-side currency check fires.
        cl, a = build()
        b = a.block_of_element((0, 1))

        def interloper():
            yield from cl.write_blocks(0, [b], phase=1)
            yield from cl.barrier(0)

        def sender():
            yield from cl.barrier(1)
            # BUG: no mk_writable; our copy predates node 0's write.
            yield from cl.ext.send_blocks(1, [b], 2)

        def receiver():
            yield from cl.ext.implicit_writable(2, [b])
            yield from cl.barrier(2)

        with pytest.raises(ContractViolation, match="stale"):
            run_programs(cl, n0=interloper(), n1=sender(), n2=receiver())


class TestCountMismatch:
    def test_receiver_waiting_for_more_than_sent_deadlocks_loudly(self):
        cl, a = build()
        b = a.block_of_element((0, 1))

        def producer():
            yield from cl.ext.mk_writable(1, [b])
            yield from cl.ext.send_blocks(1, [b], 2)

        def consumer():
            yield from cl.ext.implicit_writable(2, [b])
            yield from cl.ext.ready_to_recv(2, 2)  # BUG: expects 2 blocks

        with pytest.raises(SimulationError, match="deadlock.*node2"):
            run_programs(cl, n1=producer(), n2=consumer())


class TestMismatchedBarriers:
    def test_lopsided_barrier_counts_deadlock_loudly(self):
        cl, _a = build()

        def eager():
            yield from cl.barrier(0)
            yield from cl.barrier(0)  # BUG: second barrier nobody joins

        def others(n):
            yield from cl.barrier(n)

        with pytest.raises(SimulationError, match="deadlock"):
            run_programs(cl, n0=eager(), n1=others(1), n2=others(2))


class TestOverlappingRangesConflict:
    """Fuzz-found: a block compiler-controlled (and retained under rt-elim
    or PRE) in one loop but *boundary* (demand-read) in another loop of the
    same program.  Without the conflict resolution in the executor, the
    demand read hits the retained stale tag — the paper's "extra work
    required for dealing with overlapping ranges; we omit the details".
    """

    @staticmethod
    def _program():
        import numpy as np

        from repro.hpf.dsl import I, ProgramBuilder, S

        b = ProgramBuilder("overlap")
        # 8-double (64 B) columns: two columns per 128 B block, so a
        # 1-column halo is boundary while a 2-column halo is controlled.
        u = b.array("u", (8, 16), init=lambda s: np.arange(128.0).reshape(s))
        v = b.array("v", (8, 16))
        full = S(0, 7)
        with b.timesteps(3):
            b.forall(2, 13, v[full, I], u[full, I - 1] * 0.25, label="one_col")
            b.forall(2, 13, u[full, I], v[full, I] * 0.5 + u[full, I] * 0.5,
                     label="mix0")
            b.forall(2, 13, v[full, I], u[full, I - 2] * 0.125, label="two_col")
            b.forall(2, 13, u[full, I], v[full, I] * 0.5 + u[full, I] * 0.5,
                     label="mix1")
        return b.build()

    @pytest.mark.parametrize(
        "options",
        [dict(rt_elim=True), dict(pre=True), dict(rt_elim=True, pre=True)],
        ids=["rt_elim", "pre", "both"],
    )
    def test_retained_vs_demand_read_conflict_resolved(self, options):
        from repro.runtime import run_shmem, run_uniproc
        from repro.tempest.config import ClusterConfig

        cfg = ClusterConfig(n_nodes=4)
        prog = self._program()
        result = run_shmem(prog, cfg, optimize=True, **options)
        result.assert_same_numerics(run_uniproc(prog, cfg))


#: The three hangs the run-ending rule (docs/faults.md, "How a run ends")
#: ends degraded, as one-line ``repro`` commands.  F1: a permanent
#: partition after a checkpointed, restarting crash livelocked (post-rollback
#: keepalives never let the queue drain).  F2: both nodes of a 2-node
#: cluster crash, nobody detects either death, no channel gives up, and the
#: stuck programs were raised as a deadlock.  F3: a node already partitioned
#: away for good crashes; no probe can reach it, and the survivors' probes
#: of each other livelocked.
F1_COMMAND = (
    "lu --param n=32 --nodes 4 --fault-crash 1:243:247 "
    "--fault-partition 0:466:never --heartbeat-us 297 --checkpoint-every 2"
)
F2_COMMAND = (
    "jacobi --param n=32 --param iters=2 --nodes 2 --fault-crash 1:93:18 "
    "--fault-crash 0:189:493 --heartbeat-us 347 --checkpoint-every 1"
)
F3_COMMAND = (
    "jacobi --param n=32 --param iters=4 --nodes 4 "
    "--fault-partition 0:100:never --fault-crash 0:500 --heartbeat-us 200"
)
#: Events per ``Engine.run`` call; F1's no-partition twin needs under 50k.
MAX_EVENTS = 200_000


def run_command(command):
    """``run_shmem`` on the program and config ``repro COMMAND`` builds."""
    from repro.cli import APPS, build_parser, config_from_args
    from repro.runtime import run_shmem

    parser = build_parser()
    args = parser.parse_args(command.split())
    spec = APPS[args.app]
    params = {k: int(v) for k, v in (p.split("=") for p in args.param)}
    return run_shmem(
        spec.program(args.scale, **params), config_from_args(parser, args),
        optimize=not args.no_opt,
    )


@pytest.fixture
def bounded_engine(monkeypatch):
    """Every ``Engine.run`` without a limit stops after ``MAX_EVENTS``."""
    from repro.sim import Engine

    run = Engine.run

    def bounded(self, max_events=None):
        return run(self, MAX_EVENTS if max_events is None else max_events)

    monkeypatch.setattr(Engine, "run", bounded)


class TestRunEndingRule:
    """A run that cannot finish ends degraded (``completed is False``)
    within a bounded engine, and its failure report names who is dead and
    who is out of reach."""

    def test_f1_without_partition_recovers_within_bound(self, bounded_engine):
        twin = F1_COMMAND.replace("--fault-partition 0:466:never ", "")
        assert run_command(twin).completed

    def test_f1_partition_after_rollback_degrades(self, bounded_engine):
        result = run_command(F1_COMMAND)
        assert result.completed is False
        assert result.stats.recovery_rollbacks == 1
        failure = result.extra["failure"]
        assert failure["crashed_nodes"] == []  # node 1 came back
        assert failure["unreachable_nodes"] == [0]

    def test_f2_two_node_double_crash_degrades(self, bounded_engine):
        result = run_command(F2_COMMAND)
        assert result.completed is False
        failure = result.extra["failure"]
        assert failure["crashed_nodes"] == [0, 1]
        assert failure["unreachable_nodes"] == [0, 1]

    def test_f3_crash_behind_a_permanent_partition_degrades(self, bounded_engine):
        result = run_command(F3_COMMAND)
        assert result.completed is False
        [crash] = result.stats.crash_events
        assert crash["detected_t_ns"] is None  # no probe could reach it
        failure = result.extra["failure"]
        assert failure["crashed_nodes"] == [0]
        assert failure["unreachable_nodes"] == [0]

    def test_f2_rollback_is_not_due(self, bounded_engine, monkeypatch):
        # Two dead nodes, both restarting, a checkpoint interval — but
        # neither death was detected, so no peer knows to roll back.
        from repro.tempest.recovery import RecoveryManager

        managers = []
        init = RecoveryManager.__init__

        def recording_init(self, *args):
            init(self, *args)
            managers.append(self)

        monkeypatch.setattr(RecoveryManager, "__init__", recording_init)
        run_command(F2_COMMAND)
        [manager] = managers
        assert manager.dead_nodes() == [0, 1]
        assert manager.rollback_due() is False

    @pytest.mark.parametrize(
        "command", [F1_COMMAND, F2_COMMAND, F3_COMMAND], ids=["F1", "F2", "F3"]
    )
    def test_cli_exits_degraded(self, command, bounded_engine, capsys):
        from repro.cli import main

        assert main(command.split()) == 4
        assert "RUN DEGRADED" in capsys.readouterr().out
