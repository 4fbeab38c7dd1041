"""The five hostbench workloads and their frozen parameters.

Each workload is a fixed list of simulation cells (all 8 nodes, default
Table-1 calibration) chosen so that a different layer of the simulator
does most of the host work; README.md records why.  A workload has three
steps, run by ``rep.py`` in a fresh process:

``setup``   untimed by ``wall_s``, reported as ``setup_s``: programs,
            ``run_uniproc`` references, temp dirs
``body``    the timed region (``warm``, for sweep, is timed separately)
``verify``  untimed: checks every cell against its live reference and
            reduces results to metric values

Only ``repro``'s public API is used; nothing is imported from
``benchmarks/conftest.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import random
import time
from contextlib import contextmanager

from calibration import calibrate
from repro import APPS, ClusterConfig, parse_program, run_msgpass, run_uniproc
from repro.obs import ChromeTraceExporter, EventBus, MetricsRegistry
from repro.runtime.shmem import build_shmem_plan, execute_shmem_plan
from repro.serve import ResultStore, RunRequest, ServeSession, plan_key, request_key
from repro.tempest.config import CombineConfig, SwitchConfig
from repro.tempest.faults import CrashScenario, FaultConfig

N_NODES = 8

#: Frozen sizes.  ``bench`` is what BENCHMARK.json measures: the cell lists
#: of the issue with iteration counts cut so one rep's timed body is 3-5 s
#: and three reps plus set-up fit a 30 s run on a 2-core host (lu has no
#: iteration count; its matrix order is its pivot-step count).  ``smoke``
#: is selftest.py's quarter-size variant.
PARAMS = {
    "bench": dict(
        pde=dict(n=64, iters=3),
        cg=dict(rows=90, cols=180, iters=30),
        lu=dict(n=256),
        jacobi_big=dict(n=1024, iters=32),
        shallow_faults=dict(rows=257, cols=129, iters=2),
        crash_t_ns=60_000_000,
        jacobi_sweep=dict(n=512, iters=2),
        shallow_sweep=dict(rows=257, cols=129, iters=1),
        warm_passes=3,
        shallow_observed=dict(rows=257, cols=129, iters=3),
        parse_reps=50,
    ),
    "smoke": dict(
        pde=dict(n=32, iters=1),
        cg=dict(rows=90, cols=180, iters=4),
        lu=dict(n=64),
        jacobi_big=dict(n=512, iters=1),
        shallow_faults=dict(rows=65, cols=33, iters=1),
        crash_t_ns=27_000_000,
        jacobi_sweep=dict(n=64, iters=1),
        shallow_sweep=dict(rows=65, cols=33, iters=1),
        warm_passes=1,
        shallow_observed=dict(rows=65, cols=33, iters=1),
        parse_reps=20,
    ),
}

#: hpf.parse_s input: the repo's textual front end on a two-grid smoother
#: with a subroutine (inlined at parse), a time loop and a reduction.
HPF_FIXTURE = """
PROGRAM smoother
REAL coarse(128, 128) DISTRIBUTE (*, BLOCK)
REAL fine(128, 128)   DISTRIBUTE (*, BLOCK)
REAL work(128, 128)   DISTRIBUTE (*, BLOCK)

SUB sweep(src(128, 128), dst(128, 128))
  FORALL j = 1, 126 : dst(1:126, j) = (src(1:126, j-1) + src(1:126, j+1) + src(0:125, j) + src(2:127, j)) * 0.25
END SUB

FORALL j = 0, 127 : fine(0:127, j) = 1.0
FORALL j = 0, 127 : coarse(0:127, j) = 2.0

DO t = 0, 9
  CALL sweep(fine, work)
  CALL sweep(work, fine)
  CALL sweep(coarse, work)
  CALL sweep(work, coarse)
END DO

REDUCE energy = SUM(j = 0, 127 : fine(0:127, j) * fine(0:127, j) + coarse(0:127, j) * coarse(0:127, j))
LET half_energy = energy / 2.0
END
"""


def storm(seed: int, **extra) -> FaultConfig:
    """Drop 2% / dup 1% / jitter 10 us on every link."""
    return FaultConfig(
        drop_prob=0.02, dup_prob=0.01, jitter_ns=10_000, seed=seed, **extra
    )


def _dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(root)
        for f in files
    )


def _stat(attr: str):
    return lambda result: getattr(result.stats, attr)


def _per_node(field: str):
    return lambda result: sum(getattr(n, field) for n in result.stats.nodes)


#: metric -> reader of one RunResult; summed over a workload's cells
SUMMED = {
    "sim_elapsed_ms": lambda result: result.elapsed_ns / 1e6,
    "sim_events": _stat("events_dispatched"),
    "sim_misses": _stat("total_misses"),
    "sim_messages": _stat("total_messages"),
    "sim.events_dispatched": _stat("events_dispatched"),
    "tempest.read_misses": _per_node("read_misses"),
    "tempest.write_faults": _per_node("write_faults"),
    "tempest.bytes_sent": _stat("total_bytes"),
    "tempest.barriers": lambda result: result.extra.get("barriers", 0),
    "tempest.compute_ns": _per_node("compute_ns"),
    "tempest.stall_ns": _per_node("stall_ns"),
    "tempest.barrier_ns": _per_node("barrier_ns"),
    "tempest.call_ns": _per_node("call_ns"),
    "tempest.drops": _stat("total_drops"),
    "tempest.dups": _stat("total_dups"),
    "tempest.retransmits": _stat("total_retransmits"),
    "tempest.spurious_retransmits": _stat("total_spurious_retransmits"),
    "tempest.msgs_combined": _stat("total_msgs_combined"),
    "tempest.combine_flushes": _stat("total_combine_flushes"),
    "tempest.switch_wait_ns": _stat("total_switch_wait_ns"),
    "tempest.checkpoints": _stat("recovery_checkpoints"),
    "tempest.checkpoint_bytes": _stat("recovery_checkpoint_bytes"),
    "tempest.rollbacks": _stat("recovery_rollbacks"),
}
#: the same, but the largest over the cells
MAXIMA = {
    "sim.max_queue_depth": _stat("max_queue_depth"),
    "tempest.max_port_depth": _stat("max_port_depth"),
}


class Workload:
    """Shared measurement plumbing; subclasses define the cells."""

    name = ""

    def __init__(self, params: dict, seed: int, tmp: str) -> None:
        self.p = params
        self.seed = seed
        self.tmp = tmp
        self.cfg = ClusterConfig(n_nodes=N_NODES)
        self.values: dict[str, float] = {}
        self.programs: dict = {}
        self.refs: dict = {}
        #: label -> (ShmemPlan, reference key)
        self.plans: dict[str, tuple] = {}
        #: cell -> (RunResult, reference key, execute seconds or None)
        self.results: dict[str, tuple] = {}
        self.attempted = 0
        self.failed_cells: set[str] = set()
        self.failures: list[str] = []
        #: (wall, cpu) of each calibration pass taken by pause()
        self.cal_passes: list[tuple[float, float]] = []
        #: set by rep.py while the timed region is being profiled
        self.profiler = None

    # ------------------------- measurement ---------------------------- #
    @contextmanager
    def timed(self, metric: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(metric, time.perf_counter() - t0)

    def add(self, metric: str, amount: float) -> None:
        self.values[metric] = self.values.get(metric, 0) + amount

    def pause(self) -> None:
        """One calibration pass between cells, outside every bracket.

        rep.py subtracts the passes from the region's wall and cpu; the
        profiler is stopped so the pass is in no layer.
        """
        if self.profiler is not None:
            self.profiler.disable()
        self.cal_passes.append(calibrate())
        if self.profiler is not None:
            self.profiler.enable()

    def program(self, key: str, app: str) -> None:
        """Construct a program and its uniprocessor reference (set-up)."""
        with self.timed("apps.program_s"):
            prog = APPS[app].program(**self.p[key])
        with self.timed("runtime.uniproc_s"):
            self.refs[key] = run_uniproc(prog, self.cfg)
        self.programs[key] = prog

    def build(self, label: str, key: str, **opts) -> None:
        with self.timed("runtime.build_s"):
            plan = build_shmem_plan(self.programs[key], self.cfg, **opts)
        self.plans[label] = (plan, key)

    def execute(self, cell: str, label: str, config=None, **opts) -> None:
        plan, key = self.plans[label]
        t0 = time.perf_counter()
        result = execute_shmem_plan(plan, config or self.cfg, **opts)
        dt = time.perf_counter() - t0
        self.add("runtime.execute_s", dt)
        self.results[cell] = (result, key, dt)
        self.pause()

    # --------------------------- checking ----------------------------- #
    def check(self, cell: str, ok: bool, why: str) -> None:
        if not ok:
            self.failed_cells.add(cell)
            self.failures.append(f"{self.name}/{cell}: {why}")

    def check_cell(self, cell: str, *extra: tuple[bool, str]) -> None:
        """One attempted cell: reference numerics, completion, extras."""
        result, ref, _ = self.results[cell]
        self.attempted += 1
        self.check(cell, result.completed is True, "run did not complete")
        try:
            result.assert_same_numerics(self.refs[ref])
        except AssertionError as exc:
            self.check(cell, False, f"numerics differ from run_uniproc: {exc}")
        for cond, why in extra:
            self.check(cell, cond, why)

    def extra_checks(self, cell: str) -> list[tuple[bool, str]]:
        return []

    def check_cells(self) -> None:
        for cell in self.results:
            self.check_cell(cell, *self.extra_checks(cell))

    # -------------------------- reduction ----------------------------- #
    def reduce(self) -> None:
        """Fold every cell's simulated counters into metric values."""
        v = self.values
        executed_s = 0.0
        executed_events = 0
        for result, _, dt in self.results.values():
            for name, read in SUMMED.items():
                self.add(name, read(result))
            for name, read in MAXIMA.items():
                v[name] = max(v.get(name, 0), read(result))
            if dt is not None:
                executed_s += dt
                executed_events += result.stats.events_dispatched
        if executed_events:
            v["sim.host_us_per_event"] = executed_s / executed_events * 1e6
        for plan, _ in self.plans.values():
            self.add("runtime.trace_ops", sum(len(t) for t in plan.traces))
            self.add("runtime.plan_bytes", len(pickle.dumps(plan, protocol=4)))
            self.add("core.plans_built", plan.plans_built)
            self.add("core.controlled_blocks", plan.controlled_blocks)
        v["ok_ratio"] = 1.0 - len(self.failed_cells) / max(1, self.attempted)

    def reductions(self, pairs, paper_apps=()) -> None:
        """Opt-vs-unopt reductions over ``(unopt cell, opt cell)`` pairs."""
        time_red, miss_red = [], []
        for unopt, opt in pairs:
            u, o = self.results[unopt][0], self.results[opt][0]
            time_red.append(100.0 * (1.0 - o.elapsed_ns / u.elapsed_ns))
            miss_red.append(100.0 * (1.0 - o.total_misses / u.total_misses))
        self.values["sim_time_reduction_pct"] = sum(time_red) / len(pairs)
        self.values["miss_reduction_pct"] = sum(miss_red) / len(pairs)
        if paper_apps:
            errs = [
                abs(red - APPS[app].paper["miss_reduction"])
                for red, app in zip(miss_red, paper_apps)
            ]
            self.values["miss_reduction_err_pp"] = sum(errs) / len(errs)

    # ----------------------------- steps ------------------------------ #
    def setup(self) -> None:
        raise NotImplementedError

    def body(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """A second timed region; only sweep has one."""

    def derive(self) -> None:
        """Workload-specific values computed after the cells are checked."""

    def verify(self) -> None:
        self.check_cells()
        self.reduce()
        self.derive()


class SimProtocol(Workload):
    """Demand-miss traffic through the coherence protocols on a perfect wire."""

    name = "sim_protocol"

    def setup(self) -> None:
        self.program("pde", "pde")
        self.program("cg", "cg")

    def body(self) -> None:
        self.build("pde", "pde")
        self.execute("pde/unopt", "pde")
        self.build("pde-opt", "pde", optimize=True, rt_elim=True)
        self.execute("pde/opt", "pde-opt")
        self.build("cg", "cg")
        self.execute("cg/unopt", "cg")
        self.build("cg-opt", "cg", optimize=True)
        self.execute("cg/opt", "cg-opt")
        # same functional pass, the other protocol's handlers
        self.execute("pde/update", "pde", protocol="update")
        with self.timed("runtime.msgpass_s"):
            result = run_msgpass(self.programs["pde"], self.cfg)
        self.results["pde/msgpass"] = (result, "pde", None)

    def derive(self) -> None:
        self.reductions(
            [("pde/unopt", "pde/opt"), ("cg/unopt", "cg/opt")],
            paper_apps=("pde", "cg"),
        )


class PlanBuild(Workload):
    """The functional pass: analysis, planning and NumPy numerics."""

    name = "plan_build"

    def setup(self) -> None:
        self.program("lu", "lu")
        self.program("jacobi_big", "jacobi")

    def body(self) -> None:
        self.build("lu-opt", "lu", optimize=True, rt_elim=True)
        self.pause()
        self.execute("lu/opt", "lu-opt")
        self.build("jacobi-opt", "jacobi_big", optimize=True, rt_elim=True, pre=True)
        self.pause()
        self.execute("jacobi/opt", "jacobi-opt")

    def derive(self) -> None:
        with self.timed("hpf.parse_s"):
            for _ in range(self.p["parse_reps"]):
                parse_program(HPF_FIXTURE)


class WireFaults(Workload):
    """The reliable transport, combining, switch ports and rollback engaged."""

    name = "wire_faults"

    def setup(self) -> None:
        self.program("shallow_faults", "shallow")

    def body(self) -> None:
        self.build("unopt", "shallow_faults")
        self.build("opt", "shallow_faults", optimize=True)
        lossy = self.cfg.scaled(faults=storm(self.seed))
        self.execute("unopt/storm", "unopt", lossy)
        self.execute(
            "unopt/storm+combine+switch+rto",
            "unopt",
            self.cfg.scaled(
                faults=storm(self.seed, adaptive_rto=True),
                combine=CombineConfig(enabled=True),
                switch=SwitchConfig(enabled=True),
            ),
        )
        self.execute("opt/storm", "opt", lossy)
        crash = FaultConfig(
            seed=self.seed,
            crashes=(CrashScenario(2, self.p["crash_t_ns"], 500_000),),
            max_retries=6,
            checkpoint_every=8,
        )
        self.execute("unopt/crash", "unopt", self.cfg.scaled(faults=crash))

    def extra_checks(self, cell: str) -> list[tuple[bool, str]]:
        if cell != "unopt/crash":
            return []
        rollbacks = self.results[cell][0].stats.recovery_rollbacks
        return [(rollbacks == 1, f"expected 1 rollback, saw {rollbacks}")]

    def derive(self) -> None:
        self.reductions([("unopt/storm", "opt/storm")])


class Sweep(Workload):
    """repro.serve: pool dispatch, dedup, store writes, plan and result hits."""

    name = "sweep"

    def setup(self) -> None:
        self.program("jacobi_sweep", "jacobi")
        self.program("shallow_sweep", "shallow")
        self.jobs = min(2, os.cpu_count() or 1)
        self.cache = os.path.join(self.tmp, "cache")
        apps = (("jacobi", "jacobi_sweep"), ("shallow", "shallow_sweep"))
        #: (reference key, request) for the 2 x opt x switch x combine matrix
        self.matrix = [
            (key, RunRequest(
                app=app,
                params=self.p[key],
                config=self.cfg.scaled(
                    switch=SwitchConfig(enabled=switch),
                    combine=CombineConfig(enabled=combine),
                ),
                optimize=opt,
            ))
            for app, key in apps
            for opt, switch, combine in itertools.product((False, True), repeat=3)
        ]
        # Two plans x two fault configs: the first use of each plan is a
        # disk hit, the second a memo hit, and nothing is rebuilt.
        self.fault_cells = [
            (key, RunRequest(
                app=app,
                params=self.p[key],
                config=self.cfg.scaled(faults=faults),
                optimize=opt,
            ))
            for (app, key), opt in zip(apps, (False, True))
            for faults in (storm(self.seed), storm(self.seed, adaptive_rto=True))
        ]
        self.requests = [r for _, r in self.matrix]
        self.direct = random.Random(self.seed).sample(range(len(self.matrix)), 2)

    def body(self) -> None:
        with self.timed("serve.cold_s"):
            with ServeSession(jobs=self.jobs, cache_dir=self.cache) as session:
                # duplicates of the last two cells: still queued, so joined
                self.cold = session.run_batch(self.requests + self.requests[-2:])
                self.cold_stats = session.stats()
        self.pause()
        with self.timed("serve.planwarm_s"):
            with ServeSession(jobs=1, cache_dir=self.cache) as session:
                self.planwarm = session.run_batch([r for _, r in self.fault_cells])
                self.planwarm_stats = session.stats()
        self.pause()

    def warm(self) -> None:
        self.warm_stats = []
        for _ in range(self.p["warm_passes"]):
            with self.timed("warm_wall_s"):
                with ServeSession(jobs=1, cache_dir=self.cache) as session:
                    self.warm_served = session.run_batch(self.requests)
                    self.warm_stats.append(session.stats())
            self.pause()

    def check_cells(self) -> None:
        n = len(self.matrix)
        for i, (key, request) in enumerate(self.matrix):
            cell = f"cold/{i}:{request.label()}"
            served, again = self.cold[i], self.warm_served[i]
            self.results[cell] = (served.result, key, None)
            extra = [
                (again.source == "cache", f"warm pass source {again.source!r}"),
                (again.result.exact_equal(served.result), "warm result != cold result"),
            ]
            if i in self.direct:
                plan = build_shmem_plan(
                    self.programs[key], request.config, optimize=request.optimize
                )
                direct = execute_shmem_plan(plan, request.config)
                extra.append(
                    (direct.exact_equal(served.result), "served != direct in-process run")
                )
            self.check_cell(cell, *extra)
        for dup, original in zip(self.cold[n:], self.cold[n - 2:n]):
            cell = f"dup/{dup.request.label()}"
            self.attempted += 1
            self.check(cell, dup.source == "deduped", f"source {dup.source!r}")
            self.check(cell, dup.result.exact_equal(original.result),
                       "duplicate != original")
        rebuilt = self.planwarm_stats["plans_built"]
        for i, ((key, request), served) in enumerate(zip(self.fault_cells, self.planwarm)):
            cell = f"planwarm/{i}:{request.label()}"
            self.results[cell] = (served.result, key, None)
            self.check_cell(
                cell,
                (served.source == "computed", f"source {served.source!r}"),
                (rebuilt == 0, f"planwarm rebuilt {rebuilt} plans"),
            )

    def derive(self) -> None:
        v = self.values
        with self.timed("serve.request_key_s"):
            for r in self.requests:
                request_key(r)
        with self.timed("serve.plan_key_s"):
            for r in self.requests:
                plan_key(r)
        scratch = ResultStore(os.path.join(self.tmp, "scratch"))
        one_per_plan = self.cold[: len(self.matrix) : 4]
        with self.timed("serve.store_put_s"):
            for s in one_per_plan:
                scratch.put(ResultStore.RESULTS, s.key, s.result)
        with self.timed("serve.store_get_s"):
            for s in one_per_plan:
                scratch.get(ResultStore.RESULTS, s.key)
        store = ResultStore(self.cache)
        v["serve.result_bytes"] = _dir_bytes(os.path.join(self.cache, store.RESULTS))
        v["serve.store_bytes"] = _dir_bytes(self.cache)
        # pool workers build the plans, so the parent's counters read zero;
        # the plan entries they published are the observable count
        v["serve.plans_built"] = len(store.entries(store.PLANS))
        v["serve.plan_disk_hits"] = self.planwarm_stats["plan_disk_hits"]
        v["serve.plan_memo_hits"] = self.planwarm_stats["plan_memo_hits"]
        v["serve.deduped"] = self.cold_stats["deduped"]
        v["serve.pool_cells"] = self.cold_stats["pool"]
        hits = sum(s["cache_hits"] for s in self.warm_stats)
        v["serve.cache_hits"] = hits
        v["warm_hit_ratio"] = hits / sum(s["requests"] for s in self.warm_stats)


class Observed(Workload):
    """One plan executed under increasing observability."""

    name = "observed"
    CELLS = ("nobus", "counters", "lineage", "export")

    def setup(self) -> None:
        self.program("shallow_observed", "shallow")
        self.build("unopt", "shallow_observed")
        self.trace_path = os.path.join(self.tmp, "trace.json")

    def body(self) -> None:
        self.registries = {}
        self.execute("nobus", "unopt")
        for cell in self.CELLS[1:]:
            bus = EventBus()
            self.registries[cell] = MetricsRegistry(bus, N_NODES)
            exporter = (
                ChromeTraceExporter(bus, n_nodes=N_NODES) if cell == "export" else None
            )
            deep = cell != "counters"
            self.execute(cell, "unopt", obs=bus, profile_phases=deep, critical_path=deep)
            if exporter is not None:
                with self.timed("obs.export_write_s"):
                    exporter.write(self.trace_path)
                self.pause()
        self.values["obs.events_published"] = bus.events_published

    def extra_checks(self, cell: str) -> list[tuple[bool, str]]:
        result = self.results[cell][0]
        base = self.results["nobus"][0]
        checks = [
            (result.elapsed_ns == base.elapsed_ns, "elapsed_ns differs from no-bus"),
            (result.stats == base.stats, "stats differ from no-bus"),
        ]
        if cell in self.registries:
            mismatches = self.registries[cell].diff(result.stats)
            checks.append((not mismatches, f"MetricsRegistry: {mismatches}"))
        if result.critical_path is not None:
            total = sum(result.critical_path["classes"].values())
            checks.append(
                (total == result.elapsed_ns, "critical-path classes != elapsed_ns")
            )
        if cell == "export":
            try:
                with open(self.trace_path, encoding="utf-8") as fh:
                    json.load(fh)
                parsed = True
            except ValueError:
                parsed = False
            checks.append((parsed, "exported trace is not JSON"))
        return checks

    def derive(self) -> None:
        v = self.values
        wall = {cell: self.results[cell][2] for cell in self.CELLS}
        v["obs.counters_x"] = wall["counters"] / wall["nobus"]
        v["obs.lineage_x"] = wall["lineage"] / wall["nobus"]
        v["obs.export_run_x"] = wall["export"] / wall["nobus"]
        v["obs_overhead_x"] = (wall["export"] + v["obs.export_write_s"]) / wall["nobus"]
        v["obs.trace_bytes"] = os.path.getsize(self.trace_path)


WORKLOADS = {
    w.name: w for w in (SimProtocol, PlanBuild, WireFaults, Sweep, Observed)
}
