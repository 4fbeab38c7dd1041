"""The functional pass: a program's numerics, and its phase records.

A *phase* is one dynamic execution of a parallel statement (a parallel
loop instance, a reduction, or a replicated scalar update).  Sequential
loops unroll here; their variables feed the environment against which
symbolic bounds and access sets instantiate.

Numerics and phases are separate walks.  Control flow depends on loop
indices only, never on an array or scalar value, so the phases — and the
traces built from them — are the same whatever the numerics compute.
:func:`numerics` evaluates a program once, eagerly and in program order,
which is the semantics the barrier-separated SPMD schedule guarantees on
the simulated machine; every backend then shares that one read-only
record.  :func:`walk_phases` only yields phase records.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

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
    "Numerics",
    "PhaseRecord",
    "ProgramAnalysis",
    "apply_initializers",
    "attach_numerics",
    "numerics",
    "segment_geometry",
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
    Geometry only: the segment holds no array data (see :func:`numerics`).
    """
    mem = SharedMemory(config, home_policy=home_policy)
    for decl in decls:
        if decl.dist != "replicated":
            mem.alloc(decl.name, decl.shape, distribution_of(decl, config.n_nodes))
    return mem


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


def _unrolled(body, env: dict[str, int]) -> Iterator[Stmt]:
    """Every statement of ``body`` but the sequential loops, in execution
    order; ``env`` holds the enclosing loops' variables as each is yielded."""
    for stmt in body:
        if isinstance(stmt, SeqLoop):
            lo = stmt.lo.eval(env)
            hi = stmt.hi.eval(env)
            for v in range(lo, hi + 1):
                env[stmt.var] = v
                yield from _unrolled(stmt.body, env)
            env.pop(stmt.var, None)
        elif isinstance(stmt, (ParallelAssign, Reduce, ScalarAssign)):
            yield stmt
        else:  # pragma: no cover
            raise TypeError(f"unknown statement {stmt!r}")


@dataclass(frozen=True)
class Numerics:
    """A program's final arrays and scalars, computed once and shared.

    Every array is a read-only, Fortran-ordered view of a read-only
    base; nothing may re-enable writes through ``.base``.  Copy an array
    before mutating it.  A record pickles as its two dicts and comes back
    frozen.  Who shares a record: docs/serve.md, "Numerics keys" and
    "Read-only arrays are lent".
    """

    arrays: Mapping[str, np.ndarray]
    scalars: Mapping[str, float]

    def __reduce__(self):
        return (_frozen, (dict(self.arrays), dict(self.scalars)))


def _frozen(arrays: dict[str, np.ndarray], scalars: dict[str, float]) -> Numerics:
    """The record of final ``arrays`` and ``scalars``, made read-only."""
    for arr in arrays.values():
        arr.flags.writeable = False
    return Numerics(
        MappingProxyType({name: arr.view() for name, arr in arrays.items()}),
        MappingProxyType(dict(scalars)),
    )


#: id(program) -> (the inputs it was evaluated from, its record), for as
#: long as the program lives
_RECORDS: dict[int, tuple[tuple, Numerics]] = {}


def _inputs(program: Program) -> tuple:
    """What a record depends on beside the body: a program's dict fields."""
    return (dict(program.arrays), dict(program.scalars), dict(program.initializers))


def numerics(program: Program) -> Numerics:
    """Evaluate ``program`` once: its final arrays and scalars.

    Memoized for the lifetime of this ``Program`` object (by identity: a
    program is unhashable, and two equal programs built apart get a
    record each).  The record lives beside the program, never in it, so
    it is in no pickle, equality or fingerprint of the program.  A
    program's dict fields can be edited between runs (``repro.serve``
    re-keys an inline program on every call), so an edit since the last
    evaluation evaluates it again.
    """
    key = id(program)
    inputs = _inputs(program)
    found = _RECORDS.get(key)
    if found is not None and found[0] == inputs:
        return found[1]
    return _remember(program, inputs, _evaluate(program))


def attach_numerics(program: Program, record: Numerics) -> None:
    """Hand ``program`` a record computed elsewhere, which :func:`numerics`
    then returns instead of evaluating.

    The caller vouches that ``record`` is this program's: ``repro.serve``
    attaches the record it stored under the program's fingerprint.
    """
    _remember(program, _inputs(program), record)


def _remember(program: Program, inputs: tuple, record: Numerics) -> Numerics:
    key = id(program)
    if key not in _RECORDS:
        weakref.finalize(program, _RECORDS.pop, key, None)
    _RECORDS[key] = (inputs, record)
    return record


def _evaluate(program: Program) -> Numerics:
    arrays = {
        decl.name: np.zeros(decl.shape, order="F") for decl in program.arrays.values()
    }
    apply_initializers(program, arrays)
    scalars = dict(program.scalars)
    env: dict[str, int] = {}
    for stmt in _unrolled(program.body, env):
        if isinstance(stmt, ParallelAssign):
            eval_parallel_assign(stmt, arrays, scalars, env)
        elif isinstance(stmt, Reduce):
            eval_reduce(stmt, arrays, scalars, env)
        else:
            eval_scalar_assign(stmt, scalars)
    return _frozen(arrays, scalars)


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

    def compute_units(self, proc: int) -> int:
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

    def compute_ns(self, proc: int, config: ClusterConfig) -> int:
        """What this processor's compute op costs: its work units at
        ``compute_ns_per_unit``, plus ``loop_overhead_ns`` in a parallel
        loop where it has work units or iterations."""
        units = self.compute_units(proc)
        ns = units * config.compute_ns_per_unit
        if self.kind == "loop" and (units or not self.inst.iterations[proc].is_empty):
            ns += config.loop_overhead_ns
        return ns


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


def walk_phases(program: Program, analysis: ProgramAnalysis) -> Iterator[PhaseRecord]:
    """Yield one record per phase, in program order (no numerics run)."""
    env: dict[str, int] = {}
    for index, stmt in enumerate(_unrolled(program.body, env), 1):
        inst = None
        if not isinstance(stmt, ScalarAssign):
            inst = analysis.access(stmt).instantiate(env)
        yield PhaseRecord(index, stmt, dict(env), inst)
