"""The metric catalogue: every number hostbench prints, in one table.

``BENCHMARK.json`` at the repo root lists the same names, units and
directions (``selftest.py`` checks the two agree).  ``rule`` says how
``run.py --compare`` treats a metric:

``bound``  host-time measurement; medians may differ by at most ``bound``
``exact``  simulated/deterministic; must be identical between two runs
``info``   printed with its delta, never fails a comparison

Host time carries plain units (``s``, ``us``); *simulated* time carries
``sim_ms``/``sim_ns`` so the two clocks are never confused.  Host times are
scaled to the reference host speed by each rep (see ``calibration.py``);
``host.calibration_s`` is the one number left as measured.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from layers import LAYERS

WORKLOADS = ("sim_protocol", "plan_build", "wire_faults", "sweep", "observed")
HOST_TIME_UNITS = ("s", "us")

#: Layers whose functions must never be entered in a workload's timed
#: region: the reliable transport and recovery on a fault-free wire, and
#: all of ``repro.obs`` wherever no bus is attached (detached = free).
_FAULT_LAYERS = ("tempest.transport", "tempest.recovery")
_OBS_LAYERS = ("obs.bus", "obs.analysis", "obs.export")
ZERO_CALL_LAYERS = {
    "sim_protocol": _FAULT_LAYERS + _OBS_LAYERS,
    "plan_build": _FAULT_LAYERS + _OBS_LAYERS,
    "wire_faults": _OBS_LAYERS,
    "sweep": _OBS_LAYERS,
    "observed": _FAULT_LAYERS,
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "lower" | "higher"
    group: str             # "end_to_end" | "per_layer"
    rule: str = "info"     # "bound" | "exact" | "info"
    bound: float = 0.0
    note: str = ""


def _m(name, unit, better="lower", rule="info", bound=0.0, note="",
       group="per_layer"):
    return Metric(name, unit, better, group, rule, bound, note)


#: What a user of the simulator sees on every workload.  These are the
#: ``end_to_end`` entries of BENCHMARK.json, so each is defined and
#: non-zero on all five workloads.
END_TO_END = [
    _m("wall_s", "s", rule="bound", bound=0.25, group="end_to_end",
       note="host wall of the timed body (sweep: cold + planwarm)"),
    _m("cpu_s", "s", rule="bound", bound=0.25, group="end_to_end",
       note="user+sys of the process and its pool children over the timed body"),
    _m("setup_s", "s", rule="bound", bound=0.25, group="end_to_end",
       note="import, program construction, run_uniproc references, temp "
            "dirs, and (observed) the plan build"),
    _m("peak_rss_mb", "MB", rule="bound", bound=0.10, group="end_to_end",
       note="max resident set of the process or any pool child"),
    _m("events_per_s", "1/s", "higher", rule="bound", bound=0.25,
       group="end_to_end", note="simulated events of computed cells / wall_s"),
]

#: End-to-end in meaning, but exact (identical for a given seed, so a
#: relative bound is meaningless) or defined on one workload only; the
#: BENCHMARK.json contract wants every end_to_end metric noisy-and-bounded
#: on every workload, so they are listed under per_layer there.
SUMMARY = [
    _m("ok_ratio", "ratio", "higher", "exact",
       note="cells passing all checks / cells attempted"),
    _m("sim_elapsed_ms", "sim_ms", rule="exact",
       note="simulated elapsed, summed over cells"),
    _m("sim_events", "count", rule="exact", note="engine events, summed over cells"),
    _m("sim_misses", "count", rule="exact",
       note="read misses + write faults, summed over cells"),
    _m("sim_messages", "count", rule="exact", note="messages, summed over cells"),
    _m("sim_time_reduction_pct", "%", "higher", "exact",
       note="opt vs unopt simulated elapsed (sim_protocol, wire_faults)"),
    _m("miss_reduction_pct", "%", "higher", "exact",
       note="opt vs unopt misses (sim_protocol, wire_faults)"),
    _m("miss_reduction_err_pp", "pp", rule="exact",
       note="mean |simulated - paper miss reduction| at bench scale, not "
            "paper scale (sim_protocol)"),
    _m("warm_wall_s", "s", rule="bound", bound=0.25,
       note="fresh sessions re-serving the 16 cached cells (sweep)"),
    _m("warm_hit_ratio", "ratio", "higher", "exact",
       note="result-cache hits / requests in the warm passes (sweep)"),
    _m("obs_overhead_x", "x", rule="bound", bound=0.25,
       note="export cell wall incl. trace write / no-bus cell wall (observed)"),
]

#: perf_counter brackets around public calls, taken in every run
BRACKETS = [
    _m("host.calibration_s", "raw_s",
       note="mean calibration-loop pass around and inside the timed region, "
            "as measured; host times are scaled by CAL_REF_S / this"),
    _m("apps.program_s", "s", note="APPS[...].program() construction"),
    _m("runtime.build_s", "s", note="build_shmem_plan, summed"),
    _m("runtime.execute_s", "s", note="execute_shmem_plan, summed"),
    _m("runtime.uniproc_s", "s", note="run_uniproc references (in setup)"),
    _m("runtime.msgpass_s", "s", note="run_msgpass"),
    _m("runtime.trace_ops", "count", rule="exact",
       note="replay ops over all nodes of all plans"),
    _m("runtime.plan_bytes", "bytes", rule="exact", note="pickled ShmemPlans"),
    _m("core.plans_built", "count", rule="exact", note="distinct loop plans"),
    _m("core.controlled_blocks", "count", "higher", "exact",
       note="blocks under compiler control"),
    _m("sim.host_us_per_event", "us", note="execute_s / events, pooled over cells"),
    _m("hpf.parse_s", "s", note="50x parse_program of the mini-HPF fixture (plan_build)"),
    _m("serve.cold_s", "s", note="16 cells + 2 duplicates through the pool"),
    _m("serve.planwarm_s", "s", note="4 fault cells over cached plans"),
    _m("serve.request_key_s", "s", note="request_key over the 16 requests"),
    _m("serve.plan_key_s", "s", note="plan_key over the 16 requests"),
    _m("serve.store_put_s", "s", note="4 results (one per plan) put into a scratch store"),
    _m("serve.store_get_s", "s", note="the same 4 read back, verified"),
    _m("serve.result_bytes", "bytes", note="result entries on disk"),
    _m("serve.store_bytes", "bytes", note="whole store on disk"),
    _m("serve.plans_built", "count", rule="exact",
       note="plan entries on disk after the cold pass"),
    _m("serve.plan_disk_hits", "count", "higher", "exact", note="planwarm session"),
    _m("serve.plan_memo_hits", "count", "higher", "exact", note="planwarm session"),
    _m("serve.cache_hits", "count", "higher", "exact", note="warm passes"),
    _m("serve.deduped", "count", "higher", "exact", note="cold pass"),
    _m("serve.pool_cells", "count", rule="exact", note="cells sent to the pool"),
    _m("obs.events_published", "count", rule="exact", note="one attached run"),
    _m("obs.counters_x", "x", note="bus + MetricsRegistry / no bus"),
    _m("obs.lineage_x", "x", note="+ profile_phases + critical_path / no bus"),
    _m("obs.export_run_x", "x", note="+ ChromeTraceExporter, run only / no bus"),
    _m("obs.export_write_s", "s", note="ChromeTraceExporter.write"),
    _m("obs.trace_bytes", "bytes", note="exported trace on disk"),
]

#: modelled-component counters from RunResult.stats, summed over cells
#: (``max_*`` are maxima); exact for a given seed
COUNTERS = [
    _m("sim.events_dispatched", "count", rule="exact"),
    _m("sim.max_queue_depth", "count", rule="exact"),
    _m("tempest.read_misses", "count", rule="exact"),
    _m("tempest.write_faults", "count", rule="exact"),
    _m("tempest.bytes_sent", "bytes", rule="exact"),
    _m("tempest.barriers", "count", rule="exact"),
    _m("tempest.compute_ns", "sim_ns", rule="exact"),
    _m("tempest.stall_ns", "sim_ns", rule="exact"),
    _m("tempest.barrier_ns", "sim_ns", rule="exact"),
    _m("tempest.call_ns", "sim_ns", rule="exact"),
    _m("tempest.drops", "count", rule="exact"),
    _m("tempest.dups", "count", rule="exact"),
    _m("tempest.retransmits", "count", rule="exact"),
    _m("tempest.spurious_retransmits", "count", rule="exact"),
    _m("tempest.msgs_combined", "count", "higher", "exact"),
    _m("tempest.combine_flushes", "count", rule="exact"),
    _m("tempest.switch_wait_ns", "sim_ns", rule="exact"),
    _m("tempest.max_port_depth", "count", rule="exact"),
    _m("tempest.checkpoints", "count", rule="exact"),
    _m("tempest.checkpoint_bytes", "bytes", rule="exact"),
    _m("tempest.rollbacks", "count", rule="exact"),
]

#: from the traced run only
TRACED = [
    m
    for layer in LAYERS
    for m in (
        _m(f"{layer}.self_s", "s", note="cProfile self time charged to the layer"),
        _m(f"{layer}.calls", "count", note="calls of the layer's own functions"),
    )
] + [_m("trace.overhead_x", "x", note="traced wall / untraced median wall")]

PER_LAYER = SUMMARY + BRACKETS + COUNTERS + TRACED
CATALOGUE = {m.name: m for m in END_TO_END + PER_LAYER}
TRACED_NAMES = frozenset(m.name for m in TRACED)


def manifest_entries(metrics) -> list[dict]:
    """The BENCHMARK.json spelling of a metric list."""
    out = []
    for m in metrics:
        entry = {"name": m.name, "unit": m.unit, "better": m.better}
        if m.group == "end_to_end":
            entry["bound"] = m.bound
        out.append(entry)
    return out


def spread(values) -> float | None:
    """Inter-quartile range as a share of the median (None: too few samples)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0
