"""Property-based tests of the communication planner.

Hypothesis generates random stencil geometries (array shape, distribution,
node count, block size, halo offsets) and checks the planner's structural
invariants on every resulting plan:

* controlled and boundary block sets partition the touched non-owner
  blocks (no block is both, none is lost);
* every plan passes the static contract checker;
* sends balance receives per destination;
* every controlled block's bytes lie inside the receiver's non-owner read
  sections;
* senders are never their own destination;
* rt-elim plans contain no mk_writable, no invalidates, and only
  single-owner blocks.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.access import analyze_loop
from repro.core.blocks import section_blocks, section_byte_runs
from repro.core.calls import (
    ImplicitInvalidate,
    MkWritable,
    ReadyToRecv,
    SendBlocks,
)
from repro.core.contract import check_plan
from repro.core.planner import PlanError, plan_loop
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.runtime.phases import segment_geometry
from repro.tempest.config import ClusterConfig


@st.composite
def geometries(draw):
    rows = draw(st.sampled_from([4, 8, 16, 20, 32]))
    cols = draw(st.sampled_from([12, 16, 24, 33]))
    n_nodes = draw(st.sampled_from([2, 3, 4, 8]))
    block_size = draw(st.sampled_from([32, 64, 128]))
    dist = draw(st.sampled_from(["block", "cyclic"]))
    offsets = draw(
        st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)
    )
    max_off = max(abs(o) for o in offsets) or 1
    row_lo = draw(st.integers(0, rows - 1))
    row_hi = draw(st.integers(row_lo, rows - 1))
    return rows, cols, n_nodes, block_size, dist, offsets, row_lo, row_hi, max_off


def build_case(rows, cols, n_nodes, block_size, dist, offsets, row_lo, row_hi, max_off):
    b = ProgramBuilder("geom")
    u = b.array("u", (rows, cols), dist=dist)
    v = b.array("v", (rows, cols), dist=dist)
    expr = None
    for off in offsets:
        term = u[S(row_lo, row_hi), I + off] * 1.0
        expr = term if expr is None else expr + term
    stmt = b.forall(max_off, cols - 1 - max_off, v[S(row_lo, row_hi), I], expr)
    prog = b.build()
    cfg = ClusterConfig(n_nodes=n_nodes, block_size=block_size,
                        page_size=max(block_size * 4, 512))
    mem = segment_geometry(prog.arrays.values(), cfg)
    inst = analyze_loop(stmt, prog, n_nodes).instantiate({})
    return prog, cfg, mem, inst


@given(geom=geometries(), bulk=st.booleans())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_plan_structural_invariants(geom, bulk):
    prog, cfg, mem, inst = build_case(*geom)
    plan = plan_loop(inst, mem, bulk=bulk)
    if not plan.is_empty:
        check_plan(plan)

    sends = [op for st_ in plan.pre for op in st_ if isinstance(op, SendBlocks)]
    recvs = [op for st_ in plan.pre for op in st_ if isinstance(op, ReadyToRecv)]

    # Sends balance receives per destination.
    sent = {}
    for op in sends:
        assert op.node != op.dst
        sent[op.dst] = sent.get(op.dst, 0) + len(op.blocks)
    got = {op.node: op.count for op in recvs}
    assert sent == got

    # Controlled/boundary disjointness per receiver.
    for dst in range(cfg.n_nodes):
        c = set(plan.controlled.get(dst, np.empty(0)).tolist())
        e = set(plan.boundary.get(dst, np.empty(0)).tolist())
        assert not (c & e), (dst, c & e)

        # Controlled ∪ boundary covers exactly the receiver's non-owner
        # touched blocks.
        arr = mem.arrays["u"]
        touched = set()
        for aname, sec in inst.non_owner_reads[dst]:
            touched |= set(section_blocks(mem.arrays[aname], sec).tolist())
        assert c | e == touched, dst

        # Every controlled block is fully inside some contiguous run of a
        # non-owner section.
        runs = []
        for aname, sec in inst.non_owner_reads[dst]:
            runs.extend(section_byte_runs(mem.arrays[aname], sec))
        for blk in c:
            lo, hi = blk * cfg.block_size, (blk + 1) * cfg.block_size
            assert any(rlo <= lo and hi <= rhi for rlo, rhi in runs), (dst, blk)

    # Post-loop invalidations cover every controlled block.
    invalidated = {}
    for st_ in plan.post:
        for op in st_:
            if isinstance(op, ImplicitInvalidate):
                invalidated.setdefault(op.node, set()).update(op.blocks)
    for dst, blocks in plan.controlled.items():
        assert set(blocks.tolist()) <= invalidated.get(dst, set())


@given(geom=geometries())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_rt_elim_plan_invariants(geom):
    prog, cfg, mem, inst = build_case(*geom)
    plan = plan_loop(inst, mem, rt_elim=True)
    for st_ in plan.pre:
        assert not any(isinstance(op, MkWritable) for op in st_)
    assert not any(
        isinstance(op, ImplicitInvalidate) for st_ in plan.post for op in st_
    )
    arr = mem.arrays["u"]
    for dst, blocks in plan.controlled.items():
        if len(blocks):
            assert arr.single_owner_blocks(blocks).all()
    if not plan.is_empty:
        check_plan(plan)


@given(geom=geometries())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bulk_and_nonbulk_cover_same_blocks(geom):
    prog, cfg, mem, inst = build_case(*geom)
    p1 = plan_loop(inst, mem, bulk=True)
    p2 = plan_loop(inst, mem, bulk=False)
    c1 = {d: set(b.tolist()) for d, b in p1.controlled.items()}
    c2 = {d: set(b.tolist()) for d, b in p2.controlled.items()}
    assert c1 == c2


@given(
    st.lists(st.integers(0, 60), unique=True, min_size=1, max_size=30),
    st.lists(st.integers(0, 60), unique=True, min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_block_set_helpers_match_numpy_set_ops(xs, ys):
    """The planner's sorted-unique shortcuts against the NumPy set
    operations they replaced."""
    from repro.core.planner import _absent, _merge_blocks

    a = np.array(sorted(xs), dtype=np.int64)
    b = np.array(sorted(ys), dtype=np.int64)
    diff = a[_absent(a, b)]
    assert np.array_equal(diff, np.setdiff1d(a, b, assume_unique=True))
    merged = {"k": a}
    _merge_blocks(merged, "k", b)
    assert np.array_equal(merged["k"], np.union1d(a, b))
    assert merged["k"].dtype == np.int64
