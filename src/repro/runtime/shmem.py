"""The shared-memory executor: unoptimized and compiler-optimized runs.

Unoptimized: each parallel loop becomes, per node, *read accesses* to every
block its read sections touch (misses serviced by the default protocol),
*write accesses* to its write-section blocks (eager faults), compute time,
and the loop-end barrier.

Optimized: the planner's Figure 2 call schedule wraps the loop — senders
``mk_writable`` + push, receivers ``implicit_writable`` + ``ready_to_recv``
+ post-loop ``implicit_invalidate`` — with barriers between stages.  The
loop body then *hits* on every compiler-controlled block; only boundary
(block-straddling) data still misses, exactly the residue the paper
reports.  Options map to the paper's Sections 4.2-4.3: ``bulk`` payload
coalescing, ``rt_elim`` run-time overhead elimination, and ``pre``
availability-based redundant-communication elimination.

Two-phase structure
-------------------
Execution is split into an explicit *build* phase and an *execute* phase:

``build_shmem_plan``
    the functional pass — lays out the shared segment, runs the compiler
    analysis and planner, and reduces everything to a
    :class:`ShmemPlan`: per-node op traces plus the program's numerics.
    The numerics are not evaluated here: they are the program's one
    read-only record (:func:`~repro.runtime.phases.numerics`), shared
    with every other backend run of the same ``Program`` object.  The
    plan depends only on the program and the *geometry* the build reads
    (:func:`trace_geometry`: node count, block and page sizes, the two
    compute-cost fields) — never on the wire, protocol handler costs,
    faults, combining or switch — and is a plain picklable value, so
    ``repro.serve`` memoizes it on disk and reuses it across every cell
    of a matrix that varies anything else.

``execute_shmem_plan``
    the timing pass — replays the plan's traces against a freshly built
    cluster under the *full* config (faults, combining, switch, crash
    recovery).  Array contents are irrelevant to timing (the simulator
    moves block ids, not data), so only the segment's geometry is laid
    out again; no backing store is allocated.

``run_shmem`` composes the two and is byte-identical to the historical
single-pass implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import BlockMemo
from repro.core.calls import (
    FlushBlocks,
    ImplicitInvalidate,
    ImplicitWritable,
    MkWritable,
    Prefetch,
    ReadyToRecv,
    SelfInvalidate,
    SendBlocks,
)
from repro.core.contract import check_plan
from repro.core.planner import CommPlan, plan_loop
from repro.core.pre import AvailabilityTracker
from repro.hpf.ast import ArrayDecl, ParallelAssign, Program, Reduce, ScalarAssign
from repro.runtime.phases import (
    PhaseRecord,
    ProgramAnalysis,
    numerics,
    segment_geometry,
    walk_phases,
)
from repro.runtime.results import RunResult
from repro.runtime.traces import NodeTrace, replay
from repro.spec import OptionError
from repro.tempest.cluster import Cluster
from repro.tempest.config import ClusterConfig
from repro.tempest.memory import HomePolicy, SharedMemory

__all__ = [
    "ADVISORY_MODES",
    "BUILD_OPTIONS",
    "EXECUTE_OPTIONS",
    "ShmemPlan",
    "build_shmem_plan",
    "execute_shmem_plan",
    "run_shmem",
    "trace_geometry",
]


def trace_geometry(config: ClusterConfig) -> dict:
    """The config fields a :class:`ShmemPlan` depends on, by name.

    They are the fields the functional pass reads: the segment layout
    (``SharedMemory``: node count, block and page sizes; the planner sees
    only the segment) and the two compute costs the loop, reduce and
    scalar phases bake into traces.  Every other field is the timing
    pass's alone, so two configs with equal geometry produce identical
    plans for the same program, and one cached plan serves every cell of
    a matrix over the wire, the handler costs, faults, combining or the
    switch.
    """
    return {
        name: getattr(config, name)
        for name in (
            "n_nodes", "block_size", "page_size", "compute_ns_per_unit",
            "loop_overhead_ns",
        )
    }


def _phase_blocks(
    mem: SharedMemory, sections, memo: BlockMemo, cache: dict
) -> np.ndarray:
    """Union of block ids touched by a tuple of (array, Section) pairs.

    Memoized by object identity in ``cache``, which lives for one build:
    loop instances are cached per environment, so a time-step loop
    presents the *same* section tuples every iteration — caching here
    turns paper-scale trace building from minutes into seconds.  The
    cached entry pins the key object so its id cannot be recycled.  Each
    section is mapped through the phase's ``memo``; a lone piece is
    copied, so every tuple owns its array (writable, unshared) and plans
    pickle as if no memo existed.
    """
    hit = cache.get(id(sections))
    if hit is not None:
        return hit[1]
    pieces = [memo.blocks(a, sec) for a, sec in sections if a in mem.arrays]
    pieces = [p for p in pieces if len(p)]
    if not pieces:
        out = np.empty(0, dtype=np.int64)
    elif len(pieces) == 1:
        out = pieces[0].copy()
    else:
        # Union of sorted id arrays through a bitmap over their span.
        lo = min(p[0] for p in pieces)
        seen = np.zeros(max(p[-1] for p in pieces) + 1 - lo, dtype=bool)
        for p in pieces:
            seen[p - lo] = True
        out = np.flatnonzero(seen)
        out += lo
    cache[id(sections)] = (sections, out)
    return out


def _emit_loop_body(
    rec: PhaseRecord,
    mem: SharedMemory,
    traces: list[NodeTrace],
    config: ClusterConfig,
    memo: BlockMemo,
    cache: dict,
) -> None:
    """Reads, writes and compute of the loop itself (both modes)."""
    assert rec.inst is not None
    stmt = rec.stmt
    label = getattr(stmt, "label", "")
    for p, t in enumerate(traces):
        t.read(_phase_blocks(mem, rec.inst.reads[p], memo, cache), rec.index, label)
        t.write(_phase_blocks(mem, rec.inst.writes[p], memo, cache), rec.index)
        units = rec.compute_units(p)
        if units or not rec.inst.iterations[p].is_empty:
            t.compute(units * config.compute_ns_per_unit + config.loop_overhead_ns)


def _effective_plan(plan: CommPlan, tracker: AvailabilityTracker | None) -> CommPlan:
    """Apply PRE filtering: drop redundant sends, retain receiver copies."""
    if tracker is None:
        return plan
    new_pre = []
    for stage in plan.pre:
        ns = []
        recv_counts: dict[int, int] = {}
        for op in stage:
            if isinstance(op, SendBlocks) and op.purpose == "read":
                fresh = tracker.filter_send(op.dst, np.asarray(op.blocks))
                if len(fresh):
                    ns.append(SendBlocks(op.node, tuple(fresh.tolist()), op.dst, op.bulk))
                    recv_counts[op.dst] = recv_counts.get(op.dst, 0) + len(fresh)
            elif isinstance(op, SendBlocks):  # write preload: never elided
                ns.append(op)
                recv_counts[op.dst] = recv_counts.get(op.dst, 0) + len(op.blocks)
            elif isinstance(op, ReadyToRecv):
                pass  # rebuilt from the filtered sends
            else:
                ns.append(op)
        for dst, count in sorted(recv_counts.items()):
            ns.append(ReadyToRecv(dst, count))
        new_pre.append(ns)
    new_post = [
        [op for op in stage if not isinstance(op, ImplicitInvalidate)]
        for stage in plan.post
    ]
    return CommPlan(new_pre, new_post, plan.controlled, plan.boundary, plan.rt_elim, plan.bulk)


def _emit_call_op(op, traces: list[NodeTrace]) -> None:
    t = traces[op.node]
    if isinstance(op, MkWritable):
        t.mkw(op.blocks)
    elif isinstance(op, ImplicitWritable):
        t.iw(op.blocks, op.memo_key)
    elif isinstance(op, SendBlocks):
        t.send(op.blocks, op.dst, op.bulk)
    elif isinstance(op, ReadyToRecv):
        t.recv(op.count)
    elif isinstance(op, ImplicitInvalidate):
        t.inv(op.blocks)
    elif isinstance(op, FlushBlocks):
        t.flush(op.blocks, op.owner, op.bulk)
    elif isinstance(op, Prefetch):
        t.prefetch(op.blocks)
    elif isinstance(op, SelfInvalidate):
        t.selfinv(op.blocks)
    else:  # pragma: no cover
        raise TypeError(f"unknown call op {op!r}")


@dataclass
class ShmemPlan:
    """The cacheable product of the functional pass for one shmem run.

    A plan is a pure value: per-node op traces (plain tuples and ndarrays),
    the program's final numerics, the planner's counters, and the build
    inputs replay needs.  It contains no engine, cluster or
    generator state, so it pickles cleanly — ``repro.serve`` content-
    addresses plans on disk and replays one plan under many wire configs.
    ``arrays`` are the program's read-only numerics record, not a copy:
    every plan built from one ``Program`` object holds the same arrays,
    and every result executed from a plan views them (the rule is
    :class:`RunResult`'s).  Writing one raises; copy one first.
    """

    program_name: str
    #: declarations in allocation order — replaying them against a fresh
    #: ``SharedMemory`` reproduces the exact block numbering of the build
    array_decls: tuple[ArrayDecl, ...]
    #: per-node op lists (see repro.runtime.traces for the vocabulary)
    traces: list[list[tuple]]
    #: final array values, read-only (the simulation never touches data,
    #: so these ARE the run's numerics)
    arrays: dict[str, np.ndarray]
    scalars: dict[str, float]
    #: geometry fields (see :func:`trace_geometry`) the plan was built under
    geometry: dict
    #: the build options replay needs: the backend name and the layout
    optimize: bool = False
    home_policy: HomePolicy = HomePolicy.ALIGNED
    # planner counters, reported verbatim in RunResult.extra
    plans_built: int = 0
    controlled_blocks: int = 0
    tracker_stats: dict | None = None


def _check_optimizer_options(
    optimize: bool, rt_elim: bool, pre: bool, advisory: str | bool
) -> None:
    if advisory not in ADVISORY_MODES:
        raise ValueError(
            f"advisory must be one of {ADVISORY_MODES}; got {advisory!r}"
        )
    named = [n for n, on in (("rt_elim", rt_elim), ("pre", pre), ("advisory", advisory)) if on]
    if named and not optimize:
        raise OptionError(
            ("optimize", *named),
            "rt_elim/pre/advisory are optimizer options; pass optimize=True",
        )


def _check_protocol(optimize: bool, protocol: str) -> None:
    if optimize and protocol != "invalidate":
        raise OptionError(
            ("optimize", "protocol"),
            "the compiler-control extensions assume invalidation semantics; "
            "optimize=True requires protocol='invalidate'",
        )


#: The spellings of ``advisory``: off, prefetch only, prefetch + self-invalidate.
ADVISORY_MODES = (False, "prefetch", "full")

#: The keyword options of the functional pass and of the timing pass, by
#: name (``obs`` is an attachment, not an option).  ``RunRequest`` keys and
#: forwards exactly these, and a test pins them to the two signatures, so
#: an option cannot be keyed but not forwarded.
BUILD_OPTIONS = ("optimize", "bulk", "rt_elim", "pre", "advisory", "home_policy")
EXECUTE_OPTIONS = (
    "protocol", "audit_each_barrier", "profile_phases", "critical_path",
)


def build_shmem_plan(
    program: Program,
    config: ClusterConfig | None = None,
    optimize: bool = False,
    bulk: bool = True,
    rt_elim: bool = False,
    pre: bool = False,
    advisory: str | bool = False,
    home_policy: HomePolicy = HomePolicy.ALIGNED,
) -> ShmemPlan:
    """The functional pass: emit per-node traces beside the numerics.

    Deterministic in its arguments: the same program and geometry produce
    an equivalent plan (op-for-op identical traces, identical numerics),
    which is what makes plans safe to memoize.  Only the geometry half of
    ``config`` matters — see :func:`trace_geometry`.  The numerics are
    the program's shared record, evaluated on first use.
    """
    config = config or ClusterConfig()
    _check_optimizer_options(optimize, rt_elim, pre, advisory)
    record = numerics(program)
    mem = segment_geometry(program.arrays.values(), config, home_policy)
    analysis = ProgramAnalysis(program, config.n_nodes)
    traces = [NodeTrace(n) for n in range(config.n_nodes)]
    tracker = AvailabilityTracker(config.n_nodes, mem.n_blocks) if pre else None
    # Blocks each node retains implicitly writable across loops (rt-elim):
    # one boolean row per node, like the tracker's.
    retained_rt = np.zeros((config.n_nodes, mem.n_blocks), dtype=bool)
    plan_cache: dict[tuple[int, int], CommPlan] = {}
    block_cache: dict[int, tuple] = {}  # see _phase_blocks
    plans_built = 0
    controlled_blocks = 0

    last_index = 0
    for rec in walk_phases(program, analysis):
        # Phase markers carry no simulated cost; plain replay skips them,
        # instrumented replay turns them into ``phase`` instants.
        label = getattr(rec.stmt, "label", "") or rec.kind
        for t in traces:
            t.phase(rec.index, label)
        last_index = rec.index
        if isinstance(rec.stmt, ScalarAssign):
            for t in traces:
                t.compute(rec.compute_units(t.node) * config.compute_ns_per_unit)
            continue
        # One block mapping per distinct section of this phase.
        memo = BlockMemo(mem.arrays)
        if isinstance(rec.stmt, Reduce):
            assert rec.inst is not None
            for p, t in enumerate(traces):
                blocks = _phase_blocks(mem, rec.inst.reads[p], memo, block_cache)
                t.read(blocks, rec.index, rec.stmt.label)
                t.compute(rec.compute_units(p) * config.compute_ns_per_unit)
                t.reduce(1)
            continue

        assert isinstance(rec.stmt, ParallelAssign) and rec.inst is not None
        if not optimize:
            _emit_loop_body(rec, mem, traces, config, memo, block_cache)
            for t in traces:
                t.barrier()
            continue

        # ---------------- optimized path ---------------- #
        key = (id(rec.stmt), id(rec.inst))
        plan = plan_cache.get(key)
        if plan is None:
            plan = plan_loop(
                rec.inst, mem, bulk=bulk, rt_elim=rt_elim, advisory=advisory, memo=memo
            )
            plan_cache[key] = plan
            plans_built += 1
        eff = _effective_plan(plan, tracker)
        if not eff.is_empty:
            # Note: captured after PRE filtering, so freshly pushed blocks
            # count as retained for the restore-consistency rule (their
            # invalidation is deferred to the region-end cleanup).
            check_plan(
                eff,
                {n: tracker.retained(n).tolist() for n in range(config.n_nodes)}
                if tracker
                else None,
            )
        controlled_blocks += eff.total_controlled_blocks()

        for i, stage in enumerate(eff.pre):
            for op in stage:
                _emit_call_op(op, traces)
            if i < len(eff.pre) - 1:
                for t in traces:
                    t.barrier()

        # Retained-copy vs demand-read conflict resolution (rt-elim / PRE):
        # a block kept implicitly writable across loops may also be a
        # *boundary* block of some other loop, whose demand read would hit
        # the retained copy after the owner silently rewrote it — the
        # paper's "extra work required for dealing with overlapping
        # ranges".  Invalidate such blocks locally before the loop's reads
        # so they take a fresh demand miss.
        if rt_elim or tracker is not None:
            # retained_rt tracks *tags* still implicitly writable (their
            # invalidate was suppressed) — a superset of PRE's availability,
            # which forgets killed data while the tag lives on.
            for dst, edge in plan.boundary.items():
                conflict = edge[retained_rt[dst, edge]]
                if len(conflict):
                    traces[dst].inv(conflict.tolist())
                    retained_rt[dst, conflict] = False
                    if tracker is not None:
                        tracker.drop(dst, conflict)
            for dst, blocks in plan.controlled.items():
                retained_rt[dst, blocks] = True
        _emit_loop_body(rec, mem, traces, config, memo, block_cache)
        if tracker is not None:
            for p in range(config.n_nodes):
                wb = _phase_blocks(mem, rec.inst.writes[p], memo, block_cache)
                if len(wb):
                    tracker.note_writes(p, wb)
        for stage in eff.post:
            for op in stage:
                _emit_call_op(op, traces)
        for t in traces:
            t.barrier()

    # PRE cleanup: restore consistency on all retained copies at region end.
    if tracker is not None:
        for p, t in enumerate(traces):
            t.phase(last_index + 1, "pre-cleanup")
            leftovers = tracker.drain(p)
            t.inv(leftovers.tolist())
            t.barrier()

    return ShmemPlan(
        program_name=program.name,
        array_decls=tuple(program.arrays.values()),
        traces=[t.ops for t in traces],
        arrays=dict(record.arrays),
        scalars=dict(record.scalars),
        geometry=trace_geometry(config),
        optimize=optimize,
        home_policy=home_policy,
        plans_built=plans_built,
        controlled_blocks=controlled_blocks,
        tracker_stats=tracker.stats() if tracker is not None else None,
    )


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` that cannot write it: a result borrows its plan's
    numerics, so no write through a result can reach the plan."""
    view = arr.view()
    view.flags.writeable = False
    return view


def execute_shmem_plan(
    plan: ShmemPlan,
    config: ClusterConfig | None = None,
    protocol: str = "invalidate",
    audit_each_barrier: bool = False,
    obs=None,
    profile_phases: bool = False,
    critical_path: bool = False,
) -> RunResult:
    """The timing pass: replay a plan's traces under the full config.

    ``config`` must agree with the plan on every geometry field (see
    :func:`trace_geometry`); the fault/combining/switch layers are free to
    differ from whatever the plan was built under — that is the point.
    The coherence auditor always runs at the end of the run.

    The result's ``stats`` record what the run did, degradation included
    (``stats.failure``); ``extra`` holds only what they do not: the
    barrier count and, for an optimized plan, the planner's and the PRE
    tracker's counters.  The result's arrays are read-only views of
    ``plan.arrays``, not copies (see :class:`RunResult`): copy one before
    mutating it.
    """
    config = config or ClusterConfig()
    _check_protocol(plan.optimize, protocol)
    geometry = trace_geometry(config)
    if geometry != plan.geometry:
        changed = sorted(
            k for k in geometry if geometry.get(k) != plan.geometry.get(k)
        )
        raise ValueError(
            f"plan for {plan.program_name!r} was built under different "
            f"cluster geometry (differing fields: {changed})"
        )
    # Same declarations, same order: the build's block numbering.  No
    # program data is allocated -- the timing pass moves block ids, never
    # values (the run's numerics live in ``plan.arrays``).
    mem = segment_geometry(plan.array_decls, config, plan.home_policy)
    timeline = None
    if profile_phases or critical_path:
        from repro.obs import EventBus, Timeline, critical, profile

        if obs is None:
            obs = EventBus()
        timeline = Timeline(obs, config.n_nodes, lineage=critical_path)
    cluster = Cluster(config, mem, protocol=protocol, obs=obs)
    traces = plan.traces

    def program_factory(n: int, start: int):
        return replay(cluster, n, traces[n], start)

    stats = cluster.run(
        {n: program_factory(n, 0) for n in range(config.n_nodes)},
        audit=True,
        audit_each_barrier=audit_each_barrier,
        program_factory=program_factory,
    )

    backend = "shmem-opt" if plan.optimize else "shmem"
    extra = {"barriers": cluster.barrier_net.barriers_completed}
    if plan.optimize:
        extra.update(
            plans_built=plan.plans_built, controlled_blocks=plan.controlled_blocks
        )
        if plan.tracker_stats is not None:
            extra.update(plan.tracker_stats)
    return RunResult(
        plan.program_name,
        backend,
        stats.elapsed_ns,
        stats,
        {name: _read_only(arr) for name, arr in plan.arrays.items()},
        dict(plan.scalars),
        extra,
        phase_breakdown=(
            profile.phase_breakdown(timeline) if profile_phases else None
        ),
        critical_path=(
            critical.critical_path(timeline, stats.elapsed_ns)
            if critical_path and stats.completed
            else None
        ),
    )


def run_shmem(
    program: Program,
    config: ClusterConfig | None = None,
    optimize: bool = False,
    bulk: bool = True,
    rt_elim: bool = False,
    pre: bool = False,
    advisory: str | bool = False,
    home_policy: HomePolicy = HomePolicy.ALIGNED,
    protocol: str = "invalidate",
    audit_each_barrier: bool = False,
    obs=None,
    profile_phases: bool = False,
    critical_path: bool = False,
) -> RunResult:
    """Run a program on simulated fine-grain DSM; returns timing + numerics.

    ``config.faults`` injects interconnect faults (see
    :class:`~repro.tempest.faults.FaultConfig`), engaging the reliable
    transport.  ``config.combine`` enables control-message combining (see
    :class:`~repro.tempest.config.CombineConfig`); ``config.switch``
    enables the shared-switch contention model (see
    :class:`~repro.tempest.config.SwitchConfig`); vary one with
    ``config.scaled(faults=...)``.  The coherence auditor runs at the end
    of every run — every directory entry cross-checked against access
    tags and block versions — and ``audit_each_barrier`` also runs it at
    every barrier.

    Partition survival: a ``FaultConfig`` with per-link profiles or
    partition scenarios may make some channels give up.  If a healing
    scenario drains them the run completes normally (and the end audit
    re-proves coherence post-heal); otherwise the run returns a *degraded*
    ``RunResult`` — ``completed`` false, stats up to the give-up point,
    and ``stats.failure`` describing the stuck programs, partitioned
    channels and residual violations — instead of raising.

    Fail-stop survival: ``faults.crashes`` kills nodes mid-run; with
    ``faults.checkpoint_every`` barrier checkpoints and restarting crash
    scenarios the run rolls back and re-executes to completion (final
    numerics identical to a crash-free run; costs in
    ``stats.recovery_summary()``), otherwise it degrades as above with the
    dead node reported.

    ``obs`` attaches an observability bus (:class:`repro.obs.EventBus`) to
    the cluster: every component publishes typed events to it, and replay
    adds per-op spans and phase markers.  ``profile_phases`` and
    ``critical_path`` subscribe one :class:`repro.obs.Timeline` between
    them (creating a bus if none was passed) and fold it after the run:
    the former fills ``RunResult.phase_breakdown`` with the per-phase
    compute / miss / barrier / protocol / recovery decomposition
    (:func:`repro.obs.phase_breakdown`), the latter
    ``RunResult.critical_path`` with the exact causal critical-path
    decomposition and what-if bounds (:func:`repro.obs.critical_path`,
    completed runs only).  None of these perturb the simulation —
    schedules, stats and numerics stay identical.
    """
    opts = locals()
    config = config or ClusterConfig()
    _check_protocol(optimize, protocol)  # before the build, which is the slow half
    plan = build_shmem_plan(
        program, config, **{name: opts[name] for name in BUILD_OPTIONS}
    )
    return execute_shmem_plan(
        plan, config, obs=obs, **{name: opts[name] for name in EXECUTE_OPTIONS}
    )
