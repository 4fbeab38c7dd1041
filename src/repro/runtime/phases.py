"""The functional pass: walk a program, run numerics, yield phase records.

A *phase* is one dynamic execution of a parallel statement (a parallel
loop instance, a reduction, or a replicated scalar update).  Sequential
loops unroll here; their variables feed the environment against which
symbolic bounds and access sets instantiate.  Numerics are evaluated
eagerly in program order against the supplied arrays, so by the time a
phase record is yielded its values are already in the backing store —
exactly the semantics the barrier-separated SPMD schedule guarantees on
the simulated machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.access import LoopAccess, LoopInstance, analyze_loop
from repro.hpf.ast import (
    ParallelAssign,
    Program,
    Reduce,
    ScalarAssign,
    SeqLoop,
    Stmt,
)
from repro.hpf.eval import eval_parallel_assign, eval_reduce, eval_scalar_assign
from repro.hpf.lowering import distribution_of
from repro.tempest.config import ClusterConfig
from repro.tempest.memory import HomePolicy, SharedMemory

__all__ = [
    "PhaseRecord",
    "ProgramAnalysis",
    "allocate_segment",
    "segment_geometry",
    "apply_initializers",
    "walk_phases",
]

#: compute-model weight of a replicated scalar statement (work units)
SCALAR_UNITS = 20


def segment_geometry(
    decls, config: ClusterConfig, home_policy: HomePolicy = HomePolicy.ALIGNED
) -> SharedMemory:
    """Lay the distributed arrays out in a fresh shared segment.

    Allocation order fixes the block numbering, so replaying the same
    declarations against a fresh config of equal geometry reproduces it.
    Geometry only: no array's backing store is allocated.
    """
    mem = SharedMemory(config, home_policy=home_policy)
    for decl in decls:
        if decl.dist != "replicated":
            mem.alloc(decl.name, decl.shape, distribution_of(decl, config.n_nodes))
    return mem


def allocate_segment(
    decls, config: ClusterConfig, home_policy: HomePolicy = HomePolicy.ALIGNED
) -> tuple[SharedMemory, dict[str, np.ndarray]]:
    """:func:`segment_geometry` plus zeroed Fortran-ordered storage for
    every array (plain storage for replicated ones), in declaration order."""
    decls = tuple(decls)
    mem = segment_geometry(decls, config, home_policy)
    arrays = {
        decl.name: (
            np.zeros(decl.shape, order="F")
            if decl.dist == "replicated"
            else mem.arrays[decl.name].data
        )
        for decl in decls
    }
    return mem, arrays


def apply_initializers(program: Program, arrays: dict[str, np.ndarray]) -> None:
    """Fill arrays from the program's initializers (untimed input loading)."""
    for name, fn in program.initializers.items():
        data = np.asarray(fn(program.arrays[name].shape), dtype=np.float64)
        if data.shape != program.arrays[name].shape:
            raise ValueError(
                f"initializer for {name!r} produced shape {data.shape}, "
                f"expected {program.arrays[name].shape}"
            )
        arrays[name][...] = data


@dataclass
class PhaseRecord:
    """One dynamic phase, ready for trace generation."""

    index: int                      # 1-based phase number (the version clock)
    stmt: Stmt
    env: dict[str, int]
    inst: LoopInstance | None       # None for ScalarAssign

    @property
    def kind(self) -> str:
        if isinstance(self.stmt, ParallelAssign):
            return "loop"
        if isinstance(self.stmt, Reduce):
            return "reduce"
        return "scalar"

    def compute_units(self, proc: int, default_inner: int = 1) -> int:
        """Work units this processor contributes to the phase."""
        if isinstance(self.stmt, ScalarAssign):
            return SCALAR_UNITS
        assert self.inst is not None
        weight = self.stmt.rhs.op_count() + 1
        if isinstance(self.stmt, ParallelAssign):
            elements = sum(sec.count() for _a, sec in self.inst.writes[proc])
        else:  # Reduce: dominated by the largest section it scans
            secs = [sec.count() for _a, sec in self.inst.reads[proc]]
            elements = max(secs) if secs else 0
        return elements * weight


class ProgramAnalysis:
    """Per-statement :class:`LoopAccess` cache for one program."""

    def __init__(self, program: Program, n_procs: int) -> None:
        self.program = program
        self.n_procs = n_procs
        self._access: dict[int, LoopAccess] = {}

    def access(self, stmt: ParallelAssign | Reduce) -> LoopAccess:
        key = id(stmt)
        hit = self._access.get(key)
        if hit is None:
            hit = analyze_loop(stmt, self.program, self.n_procs)
            self._access[key] = hit
        return hit


def walk_phases(
    program: Program,
    analysis: ProgramAnalysis,
    arrays: dict[str, np.ndarray],
    scalars: dict[str, float],
) -> Iterator[PhaseRecord]:
    """Execute the program functionally, yielding one record per phase."""
    counter = [0]

    def visit(body, env: dict[str, int]) -> Iterator[PhaseRecord]:
        for stmt in body:
            if isinstance(stmt, SeqLoop):
                lo = stmt.lo.eval(env)
                hi = stmt.hi.eval(env)
                for v in range(lo, hi + 1):
                    env[stmt.var] = v
                    yield from visit(stmt.body, env)
                env.pop(stmt.var, None)
            elif isinstance(stmt, ParallelAssign):
                counter[0] += 1
                eval_parallel_assign(stmt, arrays, scalars, env)
                inst = analysis.access(stmt).instantiate(env)
                yield PhaseRecord(counter[0], stmt, dict(env), inst)
            elif isinstance(stmt, Reduce):
                counter[0] += 1
                eval_reduce(stmt, arrays, scalars, env)
                inst = analysis.access(stmt).instantiate(env)
                yield PhaseRecord(counter[0], stmt, dict(env), inst)
            elif isinstance(stmt, ScalarAssign):
                counter[0] += 1
                eval_scalar_assign(stmt, scalars)
                yield PhaseRecord(counter[0], stmt, dict(env), None)
            else:  # pragma: no cover
                raise TypeError(f"unknown statement {stmt!r}")

    yield from visit(program.body, {})
