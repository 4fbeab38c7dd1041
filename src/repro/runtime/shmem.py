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
    :class:`ShmemPlan`: per-node op traces and planner counters.  A plan
    is structure: the communication schedule does not depend on array
    values.  It depends only on the program and the *geometry* the build
    reads (:func:`trace_geometry`: node count, block and page sizes, the
    two compute-cost fields) — never on the wire, protocol handler costs,
    faults, combining or switch — and is a plain picklable value, so
    ``repro.serve`` memoizes it on disk and reuses it across every cell
    of a matrix that varies anything else.  Beside the structure, a built
    plan carries its program's one read-only numerics record
    (:func:`~repro.runtime.phases.numerics`, shared with every other
    backend run of the same ``Program`` object) in memory only: the
    record is in no pickle of the plan, and ``repro.serve`` stores it
    under a key of its own.

``execute_shmem_plan``
    the timing pass — replays the plan's traces against a freshly built
    cluster under the *full* config (faults, combining, switch, crash
    recovery).  Array contents are irrelevant to timing (the simulator
    moves block ids, not data), so only the segment's geometry is laid
    out again; no backing store is allocated.  The result holds the
    arrays of the plan's numerics record.

``run_shmem`` composes the two and is byte-identical to the historical
single-pass implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.core.blocks import BlockMemo
from repro.core.calls import CallOp, ImplicitInvalidate, ReadyToRecv, SendBlocks
from repro.core.contract import check_plan
from repro.core.planner import CommPlan, plan_loop
from repro.core.pre import AvailabilityTracker
from repro.hpf.ast import ArrayDecl, ParallelAssign, Program, Reduce, ScalarAssign
from repro.runtime.phases import (
    Numerics,
    PhaseRecord,
    ProgramAnalysis,
    numerics,
    segment_geometry,
    walk_phases,
)
from repro.runtime.results import RunResult
from repro.runtime.traces import NodeTrace, replay
from repro.spec import Rule, check
from repro.tempest.cluster import Cluster
from repro.tempest.config import ClusterConfig
from repro.tempest.memory import HomePolicy, SharedMemory

__all__ = [
    "ADVISORY_MODES",
    "BUILD_OPTIONS",
    "EXECUTE_OPTIONS",
    "OPTIMIZER_RULES",
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
    only the segment) and the two compute costs that
    :meth:`~repro.runtime.phases.PhaseRecord.compute_ns` bakes into
    every compute op.  Every other field is the timing pass's alone, so
    two configs with equal geometry produce identical plans for the same
    program, and one cached plan serves every cell of a matrix over the
    wire, the handler costs, faults, combining or the switch.
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
        t.compute(rec.compute_ns(p, config))


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


def _emit_call_op(op: CallOp, traces: list[NodeTrace]) -> None:
    lowered = op.trace()
    if lowered is not None:
        traces[op.node].ops.append(lowered)


@dataclass
class ShmemPlan:
    """The cacheable product of the functional pass for one shmem run.

    A plan is structure: per-node op traces (plain tuples and ndarrays),
    the planner's counters, and the build inputs replay needs.  It
    contains no engine, cluster or generator state, so it pickles
    cleanly — ``repro.serve`` content-addresses plans on disk and replays
    one plan under many wire configs.

    ``numerics`` is the program's read-only record
    (:class:`~repro.runtime.phases.Numerics`), held in memory only; an
    unpickled plan holds none until one is attached (``plan.numerics =
    record``).  How plans and results share it: docs/serve.md, "Numerics
    keys".
    """

    program_name: str
    #: declarations in allocation order — replaying them against a fresh
    #: ``SharedMemory`` reproduces the exact block numbering of the build
    array_decls: tuple[ArrayDecl, ...]
    #: per-node op lists (see repro.runtime.traces for the vocabulary)
    traces: list[list[tuple]]
    #: geometry fields (see :func:`trace_geometry`) the plan was built under
    geometry: dict
    #: the build options replay needs: the backend name and the layout
    optimize: bool = False
    home_policy: HomePolicy = HomePolicy.ALIGNED
    # planner counters, reported verbatim in RunResult.extra
    plans_built: int = 0
    controlled_blocks: int = 0
    tracker_stats: dict | None = None
    #: the program's final arrays and scalars (the simulation never
    #: touches data, so these ARE the run's numerics); not pickled
    numerics: Numerics | None = field(default=None, compare=False, repr=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "numerics": None}


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

#: The rules across the optimizer options (``repro.spec`` rows): the build
#: checks the first on its keyword arguments, the timing pass the second,
#: and ``RunRequest.RULES`` includes both.
OPTIMIZER_RULES = (
    Rule(("optimize", "rt_elim", "pre", "advisory"),
         lambda o: o.optimize or not (o.rt_elim or o.pre or o.advisory),
         "rt_elim/pre/advisory are optimizer options; pass optimize=True",
         always=("optimize",)),
    Rule(("optimize", "protocol"), lambda o: not o.optimize or o.protocol == "invalidate",
         "the compiler-control extensions assume invalidation semantics; "
         "optimize=True requires protocol='invalidate'"),
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
    an equivalent plan (op-for-op identical traces and counters), which
    is what makes plans safe to memoize.  Only the geometry half of
    ``config`` matters — see :func:`trace_geometry`.  The plan's
    ``numerics`` are the program's shared record, evaluated on first use.
    """
    config = config or ClusterConfig()
    if advisory not in ADVISORY_MODES:
        raise ValueError(
            f"advisory must be one of {ADVISORY_MODES}; got {advisory!r}"
        )
    options = SimpleNamespace(optimize=optimize, rt_elim=rt_elim, pre=pre, advisory=advisory)
    check(options, OPTIMIZER_RULES[:1])
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
                t.compute(rec.compute_ns(t.node, config))
            continue
        # One block mapping per distinct section of this phase.
        memo = BlockMemo(mem.arrays)
        if isinstance(rec.stmt, Reduce):
            assert rec.inst is not None
            for p, t in enumerate(traces):
                blocks = _phase_blocks(mem, rec.inst.reads[p], memo, block_cache)
                t.read(blocks, rec.index, rec.stmt.label)
                t.compute(rec.compute_ns(p, config))
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
                    _emit_call_op(ImplicitInvalidate(dst, tuple(conflict.tolist())), traces)
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
            _emit_call_op(ImplicitInvalidate(p, tuple(tracker.drain(p).tolist())), traces)
            t.barrier()

    return ShmemPlan(
        program_name=program.name,
        array_decls=tuple(program.arrays.values()),
        traces=[t.ops for t in traces],
        geometry=trace_geometry(config),
        optimize=optimize,
        home_policy=home_policy,
        plans_built=plans_built,
        controlled_blocks=controlled_blocks,
        tracker_stats=tracker.stats() if tracker is not None else None,
        numerics=record,
    )


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
    tracker's counters.  The result's arrays are ``plan.numerics.arrays``,
    read-only and not copied (see :class:`RunResult`): copy one before
    mutating it.  A plan with no numerics record (unpickled, none
    attached since) raises ``ValueError`` before anything runs.
    """
    config = config or ClusterConfig()
    record = plan.numerics
    if record is None:
        raise ValueError(
            f"plan for {plan.program_name!r} carries no numerics record "
            "(a pickled plan leaves it behind); attach its program's record "
            "as plan.numerics before executing it"
        )
    check(SimpleNamespace(optimize=plan.optimize, protocol=protocol), OPTIMIZER_RULES[1:])
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
    # values (the run's numerics live in ``plan.numerics``).
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
        dict(record.arrays),
        dict(record.scalars),
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
    # before the build, which is the slow half
    check(SimpleNamespace(optimize=optimize, protocol=protocol), OPTIMIZER_RULES[1:])
    plan = build_shmem_plan(
        program, config, **{name: opts[name] for name in BUILD_OPTIONS}
    )
    return execute_shmem_plan(
        plan, config, obs=obs, **{name: opts[name] for name in EXECUTE_OPTIONS}
    )
