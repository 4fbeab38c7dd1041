"""Unit tests for the communication planner, contract checker and PRE."""

import numpy as np
import pytest

from repro.core.access import analyze_loop
from repro.core.calls import (
    FlushBlocks,
    ImplicitInvalidate,
    ImplicitWritable,
    MkWritable,
    ReadyToRecv,
    SendBlocks,
)
from repro.core.contract import ContractError, check_plan
from repro.core.planner import CommPlan, PlanError, plan_loop
from repro.core.pre import AvailabilityTracker
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.runtime.phases import segment_geometry
from repro.tempest.config import ClusterConfig


def stencil_setup(n=128, rows=16, procs=4, on_home=False):
    """2-D stencil whose halo columns are exactly one block each."""
    b = ProgramBuilder("p")
    a = b.array("a", (rows, n))
    out = b.array("out", (rows, n))
    if on_home:
        stmt = b.forall(1, n - 2, out[S(0, rows - 1), I + 1],
                        a[S(0, rows - 1), I], on_home=a[S(0, rows - 1), I])
    else:
        stmt = b.forall(
            1, n - 2,
            out[S(0, rows - 1), I],
            (a[S(0, rows - 1), I - 1] + a[S(0, rows - 1), I + 1]) * 0.5,
        )
    prog = b.build()
    cfg = ClusterConfig(n_nodes=procs)
    mem = segment_geometry(prog.arrays.values(), cfg)
    inst = analyze_loop(stmt, prog, procs).instantiate({})
    return inst, mem


class TestPlanLoop:
    def test_full_plan_structure(self):
        inst, mem = stencil_setup()
        plan = plan_loop(inst, mem)
        assert len(plan.pre) == 3
        assert all(isinstance(op, MkWritable) for op in plan.pre[0])
        assert all(isinstance(op, ImplicitWritable) for op in plan.pre[1])
        assert all(isinstance(op, (SendBlocks, ReadyToRecv)) for op in plan.pre[2])
        assert len(plan.post) == 1
        assert all(isinstance(op, ImplicitInvalidate) for op in plan.post[0])

    def test_send_receive_counts_balance(self):
        inst, mem = stencil_setup()
        plan = plan_loop(inst, mem)
        sent = {}
        for op in plan.pre[2]:
            if isinstance(op, SendBlocks):
                sent[op.dst] = sent.get(op.dst, 0) + len(op.blocks)
        recv = {op.node: op.count for op in plan.pre[2] if isinstance(op, ReadyToRecv)}
        assert sent == recv

    def test_rt_elim_drops_stage_and_invalidate(self):
        inst, mem = stencil_setup()
        plan = plan_loop(inst, mem, rt_elim=True)
        assert len(plan.pre) == 2  # no mk_writable stage
        assert not any(isinstance(op, MkWritable) for st in plan.pre for op in st)
        assert plan.post == []
        # implicit_writable carries a memo key for the fast path
        for op in plan.pre[0]:
            assert isinstance(op, ImplicitWritable) and op.memo_key is not None

    def test_rt_elim_refuses_write_transfers(self):
        inst, mem = stencil_setup(on_home=True)
        with pytest.raises(PlanError, match="owner-computes"):
            plan_loop(inst, mem, rt_elim=True)

    def test_write_transfers_produce_flush_and_preload(self):
        inst, mem = stencil_setup(on_home=True)
        plan = plan_loop(inst, mem)
        flushes = [op for op in plan.post[0] if isinstance(op, FlushBlocks)]
        assert flushes
        preloads = [
            op for op in plan.pre[2] if isinstance(op, SendBlocks) and op.purpose == "write"
        ]
        assert preloads
        # Flush targets must be the preload sources.
        assert {f.owner for f in flushes} == {p.node for p in preloads}
        # Owners wait for the flushed data before the final barrier.
        recv = [op for op in plan.post[0] if isinstance(op, ReadyToRecv)]
        assert {r.node for r in recv} == {f.owner for f in flushes}

    def test_empty_plan_for_local_loop(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16, 64))
        out = b.array("out", (16, 64))
        stmt = b.forall(0, 63, out[S(0, 15), I], a[S(0, 15), I] * 2.0)
        prog = b.build()
        cfg = ClusterConfig(n_nodes=4)
        mem = segment_geometry(prog.arrays.values(), cfg)
        plan = plan_loop(analyze_loop(stmt, prog, 4).instantiate({}), mem)
        assert plan.is_empty

    def test_multi_owner_section_gets_designated_senders(self):
        # Broadcast of a vector whose per-owner chunks are sub-block: the
        # merged section must still be mostly controllable.
        b = ProgramBuilder("p")
        x = b.array("x", (128,))
        y = b.array("y", (128,))
        stmt = b.forall(0, 127, y[I], x[S(0, 127)] * 1.0)
        prog = b.build()
        cfg = ClusterConfig(n_nodes=8)  # 16 elements = 1 block per proc
        mem = segment_geometry(prog.arrays.values(), cfg)
        plan = plan_loop(analyze_loop(stmt, prog, 8).instantiate({}), mem)
        total = plan.total_controlled_blocks()
        assert total > 0
        # Every receiver gets ~7 of the 8 blocks (all but its own).
        for node, blocks in plan.controlled.items():
            assert len(blocks) >= 6

    def test_boundary_blocks_reported(self):
        # 20-double columns straddle 128B blocks: edges must be reported.
        b = ProgramBuilder("p")
        a = b.array("a", (20, 64))
        out = b.array("out", (20, 64))
        stmt = b.forall(
            1, 62,
            out[S(0, 19), I],
            (a[S(0, 19), I - 1] + a[S(0, 19), I + 1]) * 0.5,
        )
        prog = b.build()
        cfg = ClusterConfig(n_nodes=4)
        mem = segment_geometry(prog.arrays.values(), cfg)
        plan = plan_loop(analyze_loop(stmt, prog, 4).instantiate({}), mem)
        assert any(len(v) for v in plan.boundary.values())


class TestCheckPlan:
    def _valid_plan(self):
        inst, mem = stencil_setup()
        return plan_loop(inst, mem)

    def test_valid_plan_passes(self):
        check_plan(self._valid_plan())

    def test_missing_implicit_writable_caught(self):
        plan = self._valid_plan()
        plan.pre[1] = []  # drop all implicit_writable ops
        with pytest.raises(ContractError, match="implicit_writable"):
            check_plan(plan)

    def test_same_stage_send_and_iw_caught(self):
        plan = self._valid_plan()
        # Move the iw ops into the send stage: no barrier between them.
        plan.pre[2] = plan.pre[1] + plan.pre[2]
        plan.pre[1] = []
        with pytest.raises(ContractError, match="barrier-separated"):
            check_plan(plan)

    def test_missing_mk_writable_caught(self):
        plan = self._valid_plan()
        plan.pre[0] = []
        with pytest.raises(ContractError, match="mk_writable"):
            check_plan(plan)

    def test_recv_count_mismatch_caught(self):
        plan = self._valid_plan()
        plan.pre[2] = [
            op if not isinstance(op, ReadyToRecv) else ReadyToRecv(op.node, op.count + 1)
            for op in plan.pre[2]
        ]
        with pytest.raises(ContractError, match="expects"):
            check_plan(plan)

    def test_missing_invalidate_caught(self):
        plan = self._valid_plan()
        plan.post = []
        with pytest.raises(ContractError, match="restores consistency"):
            check_plan(plan)

    def test_retained_blocks_excuse_missing_invalidate(self):
        plan = self._valid_plan()
        plan.post = []
        retained: dict[int, set[int]] = {}
        for op in plan.pre[2]:
            if isinstance(op, SendBlocks):
                retained.setdefault(op.dst, set()).update(op.blocks)
        check_plan(plan, retained)  # PRE-style retention: fine

    def test_rt_elim_plan_passes_without_mkw(self):
        inst, mem = stencil_setup()
        check_plan(plan_loop(inst, mem, rt_elim=True))

    # Rule 5: one designated writer per block in a stage (Section 4.2).
    def test_two_writers_of_one_block_caught(self):
        plan = self._valid_plan()
        mkw = plan.pre[0][0]
        plan.pre[0].append(MkWritable((mkw.node + 1) % 4, mkw.blocks[:1]))
        with pytest.raises(ContractError, match="MkWritable at node .* makes writable"):
            check_plan(plan)

    @pytest.mark.parametrize("first", [False, True])
    def test_writer_and_implicit_writer_in_one_stage_caught(self, first):
        plan = self._valid_plan()
        mkw = plan.pre[0][0]
        iw = ImplicitWritable((mkw.node + 1) % 4, mkw.blocks[:1], None)
        plan.pre[0].insert(0 if first else len(plan.pre[0]), iw)
        with pytest.raises(ContractError, match="ImplicitWritable at node .* makes writable"):
            check_plan(plan)

    def test_writer_may_take_its_own_block_implicitly_writable(self):
        plan = self._valid_plan()
        mkw = plan.pre[0][0]
        plan.pre[0].append(ImplicitWritable(mkw.node, mkw.blocks[:1], None))
        check_plan(plan)


class TestAvailabilityTracker:
    def test_first_send_passes_through(self):
        tr = AvailabilityTracker(4, n_blocks=16)
        out = tr.filter_send(1, np.array([10, 11, 12]))
        np.testing.assert_array_equal(out, [10, 11, 12])

    def test_repeat_send_fully_elided(self):
        tr = AvailabilityTracker(4, n_blocks=16)
        tr.filter_send(1, np.array([10, 11]))
        out = tr.filter_send(1, np.array([10, 11]))
        assert len(out) == 0
        assert tr.sends_elided == 1
        assert tr.blocks_elided == 2

    def test_write_kills_availability_except_writer(self):
        tr = AvailabilityTracker(4, n_blocks=16)
        tr.filter_send(1, np.array([10]))
        tr.filter_send(2, np.array([10]))
        tr.note_writes(2, np.array([10]))
        assert len(tr.filter_send(1, np.array([10]))) == 1  # killed at 1
        assert len(tr.filter_send(2, np.array([10]))) == 0  # writer keeps it

    def test_partial_overlap(self):
        tr = AvailabilityTracker(4, n_blocks=16)
        tr.filter_send(3, np.array([5, 6]))
        out = tr.filter_send(3, np.array([6, 7]))
        np.testing.assert_array_equal(out, [7])

    def test_drain_returns_and_clears(self):
        tr = AvailabilityTracker(4, n_blocks=16)
        tr.filter_send(1, np.array([3, 4]))
        np.testing.assert_array_equal(tr.drain(1), [3, 4])
        assert len(tr.retained(1)) == 0
        assert len(tr.filter_send(1, np.array([3]))) == 1

    def test_stats(self):
        tr = AvailabilityTracker(2, n_blocks=16)
        tr.filter_send(1, np.array([1, 2, 3]))
        tr.filter_send(1, np.array([1, 2, 3]))
        s = tr.stats()
        assert s["sends_elided"] == 1 and s["blocks_elided"] == 3
        assert s["live_blocks"] == 3
