"""Integration tests: the four backends on real programs.

The central invariants:

* all backends produce bit-identical numerics,
* the optimized backend removes most demand misses,
* the optimizer options behave per the paper (bulk coalesces messages,
  rt-elim removes calls+barriers, PRE elides stable-data resends),
* no contract violations or stale reads anywhere,
* a run's outcome lives in its stats: every backend degrades the same
  way, and ``extra`` carries only numbers nothing else holds,
* a run's numerics are held once: a shmem result views its plan's record
  read-only, uniproc and msgpass hand over the record's arrays, and a
  pickled plan carries no record.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro import APPS
from repro.core.symbolic import Sym
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.runtime import run_msgpass, run_shmem, run_uniproc
from repro.runtime.phases import numerics
from repro.runtime.shmem import build_shmem_plan, execute_shmem_plan
from repro.serve import ResultStore
from repro.tempest.config import ClusterConfig
from repro.tempest.faults import CrashScenario, FaultConfig, PartitionScenario, _US
from repro.tempest.memory import HomePolicy
from repro.tempest.stats import COHERENCE_KINDS, MsgKind

from tests import pins
from tests.runtime.conftest import jacobi_program, stable_reader_program


class TestNumericEquivalence:
    def test_all_backends_agree_on_jacobi(self, cfg4):
        prog = jacobi_program()
        uni = run_uniproc(prog, cfg4)
        for result in (
            run_shmem(prog, cfg4),
            run_shmem(prog, cfg4, optimize=True),
            run_shmem(prog, cfg4, optimize=True, rt_elim=True),
            run_shmem(prog, cfg4, optimize=True, rt_elim=True, pre=True),
            run_msgpass(prog, cfg4),
        ):
            result.assert_same_numerics(uni)

    def test_jacobi_numerics_match_direct_numpy(self, cfg4):
        prog = jacobi_program(n=32, iters=2)
        got = run_shmem(prog, cfg4, optimize=True).arrays["a"]
        a = np.ones((32, 32))
        a[:, 0] = 0  # init loop writes 1.0 everywhere; interior updated
        a = np.ones((32, 32))
        for _ in range(2):
            new = a.copy()
            new[1:-1, 1:-1] = (a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]) * 0.25
            a[1:-1, 1:-1] = new[1:-1, 1:-1]
        np.testing.assert_allclose(got, a)

    def test_single_cpu_config_agrees_too(self):
        cfg = ClusterConfig(n_nodes=4, dual_cpu=False)
        prog = jacobi_program(n=32, iters=2)
        run_shmem(prog, cfg, optimize=True).assert_same_numerics(run_uniproc(prog, cfg))


class TestMissReduction:
    def test_optimization_removes_most_misses(self, cfg4):
        # Needs columns of many blocks so edge effects don't dominate
        # (n=256 -> 16 blocks per column, 14 compiler-controllable).
        prog = jacobi_program(n=256)
        unopt = run_shmem(prog, cfg4)
        opt = run_shmem(prog, cfg4, optimize=True)
        assert opt.total_misses < 0.35 * unopt.total_misses
        assert unopt.total_misses > 0

    def test_small_columns_show_pronounced_edge_effects(self, cfg4):
        # The grav phenomenon: at 64x64 a column is only 4 blocks, and the
        # stencil's shifted-row sections leave half of each halo column as
        # boundary blocks -> far weaker miss reduction.
        prog = jacobi_program(n=64)
        unopt = run_shmem(prog, cfg4)
        opt = run_shmem(prog, cfg4, optimize=True)
        assert 0.4 * unopt.total_misses < opt.total_misses < unopt.total_misses

    def test_remaining_misses_are_boundary_blocks(self, cfg4):
        # With block-aligned halo columns (full columns transferred), the
        # optimized run's residual misses come only from the partial-column
        # reads at the loop edge.
        prog = jacobi_program(n=64)
        opt = run_shmem(prog, cfg4, optimize=True)
        # 64 rows * 8B = 512B = 4 blocks per column; rows 0..61 / 1..62 /
        # 2..63 sections leave the first and last block partially covered.
        assert 0 < opt.total_misses < 200

    def test_msgpass_has_zero_misses(self, cfg4):
        assert run_msgpass(jacobi_program(), cfg4).total_misses == 0

    def test_optimized_uses_data_messages_not_coherence(self, cfg4):
        prog = jacobi_program(n=256)
        opt = run_shmem(prog, cfg4, optimize=True)
        kinds = opt.stats.messages_by_kind()
        assert kinds[MsgKind.DATA] > 0
        coherence = sum(v for k, v in kinds.items() if k in COHERENCE_KINDS)
        data = kinds[MsgKind.DATA]
        unopt_coh = sum(
            v
            for k, v in run_shmem(prog, cfg4).stats.messages_by_kind().items()
            if k in COHERENCE_KINDS
        )
        assert coherence < 0.5 * unopt_coh


class TestOptimizerOptions:
    def test_bulk_reduces_data_message_count(self, cfg4):
        prog = jacobi_program()
        no_bulk = run_shmem(prog, cfg4, optimize=True, bulk=False)
        bulk = run_shmem(prog, cfg4, optimize=True, bulk=True)
        assert bulk.stats.messages_by_kind()[MsgKind.DATA] < no_bulk.stats.messages_by_kind()[MsgKind.DATA]
        assert bulk.elapsed_ns <= no_bulk.elapsed_ns

    def test_rt_elim_removes_barriers_and_time(self, cfg4):
        prog = jacobi_program()
        base = run_shmem(prog, cfg4, optimize=True)
        rte = run_shmem(prog, cfg4, optimize=True, rt_elim=True)
        assert rte.extra["barriers"] < base.extra["barriers"]
        assert rte.elapsed_ns < base.elapsed_ns

    def test_pre_elides_stable_data_sends(self, cfg4):
        prog = stable_reader_program()
        base = run_shmem(prog, cfg4, optimize=True)
        pre = run_shmem(prog, cfg4, optimize=True, pre=True)
        assert pre.extra["blocks_elided"] > 0
        assert (
            pre.stats.messages_by_kind()[MsgKind.DATA]
            < base.stats.messages_by_kind()[MsgKind.DATA]
        )
        pre.assert_same_numerics(base)

    def test_pre_does_not_elide_fresh_data(self, cfg4):
        prog = jacobi_program()
        pre = run_shmem(prog, cfg4, optimize=True, pre=True)
        # Halos are rewritten every iteration: only the repeated *first*
        # sweep blocks could ever be elided, and they are rewritten too.
        assert pre.extra["blocks_elided"] == 0

    def test_options_require_optimize(self, cfg4):
        with pytest.raises(ValueError, match="optimize"):
            run_shmem(jacobi_program(), cfg4, rt_elim=True)


class TestTimingSanity:
    def test_parallel_beats_uniproc_on_compute_bound(self):
        cfg = ClusterConfig(n_nodes=8)
        prog = jacobi_program(n=128, iters=4)
        uni = run_uniproc(prog, cfg)
        opt = run_shmem(prog, cfg, optimize=True)
        assert 2.0 < uni.elapsed_ns / opt.elapsed_ns <= 8.0

    def test_optimization_improves_total_time(self, cfg4):
        prog = jacobi_program()
        assert (
            run_shmem(prog, cfg4, optimize=True).elapsed_ns
            < run_shmem(prog, cfg4).elapsed_ns
        )

    def test_single_cpu_slower_than_dual(self):
        prog = jacobi_program()
        dual = run_shmem(prog, ClusterConfig(n_nodes=4, dual_cpu=True))
        single = run_shmem(prog, ClusterConfig(n_nodes=4, dual_cpu=False))
        assert single.elapsed_ns > dual.elapsed_ns

    def test_optimization_helps_single_cpu_proportionally_more(self):
        # Needs a problem big enough that protocol occupancy (what the
        # second CPU absorbs) dominates the fixed barrier costs.
        prog = jacobi_program(n=128)
        d_un = run_shmem(prog, ClusterConfig(n_nodes=4, dual_cpu=True))
        d_op = run_shmem(prog, ClusterConfig(n_nodes=4, dual_cpu=True), optimize=True)
        s_un = run_shmem(prog, ClusterConfig(n_nodes=4, dual_cpu=False))
        s_op = run_shmem(prog, ClusterConfig(n_nodes=4, dual_cpu=False), optimize=True)
        gain_dual = d_un.elapsed_ns / d_op.elapsed_ns
        gain_single = s_un.elapsed_ns / s_op.elapsed_ns
        assert gain_single > gain_dual

    def test_deterministic_runs(self, cfg4):
        prog = jacobi_program(n=32, iters=2)
        r1 = run_shmem(prog, cfg4, optimize=True)
        r2 = run_shmem(prog, cfg4, optimize=True)
        assert r1.elapsed_ns == r2.elapsed_ns
        assert r1.total_misses == r2.total_misses


class TestNonOwnerWrites:
    def _program(self, n=32, rows=32):
        # 2-D so the shifted write sections are whole (block-aligned)
        # columns — 1-D single-element pieces would all be boundary blocks.
        b = ProgramBuilder("nowrite")
        a = b.array("a", (rows, n))
        w = b.array("w", (rows, n))
        b.forall(0, n - 1, a[S(0, rows - 1), I], 3.0, label="init")
        with b.timesteps(2):
            b.forall(
                1,
                n - 2,
                w[S(0, rows - 1), I + 1],
                a[S(0, rows - 1), I] * 2.0,
                on_home=a[S(0, rows - 1), I],
                label="shifted",
            )
        return b.build()

    def test_flush_path_correct_and_counted(self, cfg4):
        prog = self._program()
        uni = run_uniproc(prog, cfg4)
        opt = run_shmem(prog, cfg4, optimize=True)
        opt.assert_same_numerics(uni)
        assert opt.stats.messages_by_kind()[MsgKind.FLUSH] > 0

    def test_rt_elim_refused_with_non_owner_writes(self, cfg4):
        from repro.core.planner import PlanError

        with pytest.raises(PlanError, match="owner-computes"):
            run_shmem(self._program(), cfg4, optimize=True, rt_elim=True)

    def test_msgpass_handles_non_owner_writes(self, cfg4):
        prog = self._program()
        run_msgpass(prog, cfg4).assert_same_numerics(run_uniproc(prog, cfg4))


class TestSymbolicPrograms:
    def _triangular(self, n=32):
        """LU-flavoured: loop bounds and sections depend on the pivot k."""
        b = ProgramBuilder("tri")
        a = b.array("a", (n, n))
        b.forall(0, n - 1, a[S(0, n - 1), I], 1.0, label="init")
        with b.seq("k", 0, n - 2) as k:
            b.forall(
                k + 1,
                n - 1,
                a[S(0, n - 1), I],
                a[S(0, n - 1), I] - a[S(0, n - 1), k] * 0.01,
                label="update",
            )
        return b.build()

    def test_triangular_runs_and_agrees(self, cfg4):
        prog = self._triangular()
        uni = run_uniproc(prog, cfg4)
        for r in (
            run_shmem(prog, cfg4),
            run_shmem(prog, cfg4, optimize=True),
            run_msgpass(prog, cfg4),
        ):
            r.assert_same_numerics(uni)

    def test_triangular_broadcast_misses_reduced(self, cfg4):
        prog = self._triangular()
        unopt = run_shmem(prog, cfg4)
        opt = run_shmem(prog, cfg4, optimize=True)
        assert opt.total_misses < unopt.total_misses


class TestHomePolicies:
    @pytest.mark.parametrize(
        "policy", [HomePolicy.ALIGNED, HomePolicy.ROUND_ROBIN, HomePolicy.NODE0]
    )
    def test_numerics_independent_of_home_placement(self, cfg4, policy):
        prog = jacobi_program(n=32, iters=2)
        result = run_shmem(prog, cfg4, optimize=True, home_policy=policy)
        result.assert_same_numerics(run_uniproc(prog, cfg4))

    def test_misaligned_homes_cost_more(self, cfg4):
        prog = jacobi_program(n=64, iters=3)
        aligned = run_shmem(prog, cfg4, home_policy=HomePolicy.ALIGNED)
        node0 = run_shmem(prog, cfg4, home_policy=HomePolicy.NODE0)
        assert node0.elapsed_ns > aligned.elapsed_ns


class TestReductionsAndScalars:
    def _program(self, n=64):
        from repro.hpf.ast import ScalarRef

        b = ProgramBuilder("reduce")
        a = b.array("a", (n,))
        b.forall(0, n - 1, a[I], 2.0, label="init")
        b.reduce("total", 0, n - 1, a[I] * a[I], label="ss")
        b.scalar("scaled", ScalarRef("total") * 0.5)
        b.forall(0, n - 1, a[I], a[I] * ScalarRef("scaled"), label="scale")
        return b.build()

    def test_reduction_value_correct_everywhere(self, cfg4):
        prog = self._program()
        for r in (
            run_uniproc(prog, cfg4),
            run_shmem(prog, cfg4),
            run_shmem(prog, cfg4, optimize=True),
            run_msgpass(prog, cfg4),
        ):
            assert r.scalars["total"] == pytest.approx(64 * 4.0)
            assert r.scalars["scaled"] == pytest.approx(128.0)
            np.testing.assert_allclose(r.arrays["a"], 2.0 * 128.0)

    def test_reduce_message_traffic(self, cfg4):
        r = run_shmem(self._program(), cfg4)
        kinds = r.stats.messages_by_kind()
        assert kinds[MsgKind.REDUCE] == 4
        assert kinds[MsgKind.REDUCE_RESULT] == 4


def msgpass_schedule(app: str) -> dict:
    """What ``run_msgpass`` did at default scale on 4 nodes."""
    r = run_msgpass(APPS[app].program("default"), ClusterConfig(n_nodes=4))
    s = r.stats
    return {
        "elapsed_ns": r.elapsed_ns,
        "events_dispatched": s.events_dispatched,
        "total_messages": s.total_messages,
        "total_bytes": s.total_bytes,
    }


class TestMsgpassSchedule:
    #: app -> (elapsed_ns, events_dispatched, total_messages, total_bytes):
    #: the ``msgpass`` table of tests.pins
    PINNED = pins.stored("msgpass")

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_schedule_is_pinned(self, app):
        assert pins.fields(msgpass_schedule(app)) == self.PINNED[app]


class TestRunRecord:
    """``ClusterStats`` is the one record of what a run did: a result's
    completion reads it, and ``extra`` echoes neither config nor options."""

    def test_msgpass_degrades_behind_a_permanent_partition(self):
        cut = PartitionScenario("cut", frozenset({1}), t_start_ns=100 * _US)
        cfg = ClusterConfig(n_nodes=4, faults=FaultConfig(partitions=(cut,), max_retries=3))
        r = run_msgpass(jacobi_program(n=32, iters=2), cfg)
        assert r.completed is False and r.stats.completed is False
        assert r.stats.failure["unreachable_nodes"] == [1]
        parked = r.stats.failure["partitioned_channels"]
        assert parked and all(1 in (c["src"], c["dst"]) for c in parked)

    def test_msgpass_degrades_when_a_node_never_restarts(self):
        cfg = ClusterConfig(
            n_nodes=4, faults=FaultConfig(crashes=(CrashScenario(1, 300 * _US),))
        )
        r = run_msgpass(jacobi_program(n=32, iters=2), cfg)
        assert r.completed is False
        assert r.stats.failure["crashed_nodes"] == [1]

    #: each backend's ``extra`` keys; an optimized shmem run adds the planner's
    #: counters and, with PRE, the availability tracker's
    EXTRA_KEYS = {"uniproc": {"phases"}, "msgpass": {"mp_messages", "mp_bytes"},
                  "shmem": {"barriers"}}
    PLANNER_KEYS = {"plans_built", "controlled_blocks"}
    PRE_KEYS = {"sends_elided", "blocks_elided", "live_blocks"}

    def test_extra_holds_no_echoes(self):
        prog = jacobi_program(n=32, iters=2)
        faults = FaultConfig(drop_prob=0.05, seed=1)
        cfg = ClusterConfig(n_nodes=4, faults=faults)
        assert set(run_uniproc(prog, cfg).extra) == self.EXTRA_KEYS["uniproc"]
        assert set(run_msgpass(prog, cfg).extra) == self.EXTRA_KEYS["msgpass"]
        shmem = self.EXTRA_KEYS["shmem"]
        assert set(run_shmem(prog, cfg).extra) == shmem
        assert set(run_shmem(prog, cfg, optimize=True, rt_elim=True).extra) == (
            shmem | self.PLANNER_KEYS
        )
        assert set(run_shmem(prog, cfg, optimize=True, pre=True).extra) == (
            shmem | self.PLANNER_KEYS | self.PRE_KEYS
        )


class TestNumericsHeldOnce:
    """Numerics are computed and held once: a program's one read-only
    record is what its built plans carry and what every backend's result
    views, so no plan, result or memoized copy can be written through
    another; a shmem result views its plan's record, which no pickle of
    the plan holds.  The arrays are 128 KiB each, so a stored result
    keeps them in blobs."""

    @pytest.fixture(scope="class")
    def prog(self):
        return jacobi_program(n=128, iters=2)

    @pytest.mark.parametrize("optimize", [False, True], ids=["unopt", "opt"])
    def test_shmem_results_view_the_plan_read_only(self, prog, cfg4, optimize):
        plan = build_shmem_plan(prog, cfg4, optimize=optimize)
        first = execute_shmem_plan(plan, cfg4)
        assert plan.numerics is numerics(prog)
        assert set(first.arrays) == set(plan.numerics.arrays)
        for name, arr in first.arrays.items():
            assert np.shares_memory(arr, plan.numerics.arrays[name])
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = -1.0
            with pytest.raises(ValueError, match="read-only"):
                plan.numerics.arrays[name][0, 0] = -1.0
        again = execute_shmem_plan(plan, cfg4)
        assert again.exact_equal(first)

    def test_a_pickled_plan_is_structure_only(self, prog, cfg4):
        plan = build_shmem_plan(prog, cfg4, optimize=True)
        record = numerics(prog)
        assert plan.numerics is record
        data = pickle.dumps(plan)
        assert len(data) < sum(arr.nbytes for arr in record.arrays.values())
        back = pickle.loads(data)
        assert back.numerics is None and plan.numerics is record
        # the record is in no repr or equality of a plan (traces hold
        # ndarrays, so plans compare field by field, not with ``==``)
        assert repr(back) == repr(plan) and "numerics" not in repr(plan)
        [field] = [f for f in dataclasses.fields(plan) if f.name == "numerics"]
        assert not field.compare
        with pytest.raises(ValueError, match="carries no numerics record"):
            execute_shmem_plan(back, cfg4)
        back.numerics = record
        assert execute_shmem_plan(back, cfg4).exact_equal(execute_shmem_plan(plan, cfg4))

    def test_every_backend_views_the_one_read_only_record(self, prog, cfg4):
        record = numerics(prog)
        results = [
            run_shmem(prog, cfg4), run_shmem(prog, cfg4, optimize=True),
            run_uniproc(prog, cfg4), run_msgpass(prog, cfg4),
        ]
        for result in results:
            assert set(result.arrays) == set(record.arrays)
            assert result.scalars == dict(record.scalars)
            for name, arr in result.arrays.items():
                assert not arr.flags.writeable and arr.flags.f_contiguous, result.backend
                assert np.shares_memory(arr, record.arrays[name]), (result.backend, name)
                with pytest.raises(ValueError):
                    arr.flags.writeable = True

    def test_a_served_shmem_result_is_lent_read_only(self, prog, cfg4, tmp_path):
        direct = run_shmem(prog, cfg4, optimize=True)
        # lending is per process: shifted arrays no other test holds keep
        # the lend count this test's own
        arrays = {name: arr + 0.5 for name, arr in direct.arrays.items()}
        for arr in arrays.values():
            arr.flags.writeable = False
        direct = dataclasses.replace(direct, arrays=arrays)
        store = ResultStore(tmp_path / "store")
        key = "ab" * 32
        store.put(ResultStore.RESULTS, key, direct)
        first = store.get(ResultStore.RESULTS, key)
        second = store.get(ResultStore.RESULTS, key)
        assert first.exact_equal(direct) and second.exact_equal(direct)
        assert store.stats.blob_lends == len(direct.arrays) > 0
        for name, arr in first.arrays.items():
            assert np.shares_memory(arr, second.arrays[name])
            assert not arr.flags.writeable and not second.arrays[name].flags.writeable
            with pytest.raises(ValueError):
                arr.flags.writeable = True
            assert not np.shares_memory(arr, direct.arrays[name])
