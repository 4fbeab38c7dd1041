"""Uniprocessor reference run — the speedup denominator.

Walks the program's phases on a single logical processor and charges the
full compute-model cost with zero communication, matching the paper's
"speedups are calculated relative to a uniprocessor run".  (The paper's
uniprocessor baselines are *not* cache-blocked, which is where its
superlinear speedups come from; our compute model is cache-less, so
speedup ceilings equal the node count — see DESIGN.md.)  Its numerics
are the program's one shared record (:func:`~repro.runtime.phases.numerics`).
"""

from __future__ import annotations

from repro.hpf.ast import Program
from repro.runtime.phases import ProgramAnalysis, numerics, walk_phases
from repro.runtime.results import RunResult
from repro.tempest.config import ClusterConfig

__all__ = ["run_uniproc"]


def run_uniproc(program: Program, config: ClusterConfig | None = None) -> RunResult:
    config = config or ClusterConfig()
    record = numerics(program)
    analysis = ProgramAnalysis(program, n_procs=1)
    total_ns = 0
    phases = 0
    for rec in walk_phases(program, analysis):
        phases += 1
        total_ns += rec.compute_units(0) * config.compute_ns_per_unit
        if rec.kind != "scalar":
            total_ns += config.loop_overhead_ns
    return RunResult(
        program.name,
        "uniproc",
        total_ns,
        None,
        dict(record.arrays),
        dict(record.scalars),
        {"phases": phases},
    )
