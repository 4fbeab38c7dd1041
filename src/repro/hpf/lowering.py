"""Owner-computes lowering: who executes which iterations.

"Work distribution is determined at compile-time, typically following the
owner-computes rule" (paper Section 2).  For a parallel loop whose LHS last
subscript is ``j + off``, processor ``p`` executes exactly the iterations
``j`` with ``owner(j + off) == p`` — i.e. the owned columns shifted by
``-off``, clipped to the loop bounds.  Bounds and offsets may be symbolic
in enclosing sequential variables; the owned set itself is static, so the
iteration spec is a *parametric* object instantiated per environment (the
same deferred-evaluation trick the paper plays with Omega-generated code).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.sections import StridedInterval
from repro.core.symbolic import Env, Lin
from repro.hpf.ast import ArrayDecl, At, LoopIdx, ParallelAssign, Reduce
from repro.tempest.memory import Distribution

__all__ = ["IterSpec", "distribution_of", "iteration_spec", "owner_of_at"]


_DISTRIBUTIONS = {
    "block": Distribution.block,
    "cyclic": Distribution.cyclic,
    "replicated": Distribution.replicated,
}


def distribution_of(decl: ArrayDecl, n_procs: int) -> Distribution:
    return _DISTRIBUTIONS[decl.dist](n_procs)


@dataclass(frozen=True)
class IterSpec:
    """Parametric per-processor iteration sets of one parallel loop.

    ``owned[p]`` is processor p's owned last-dimension index set (static);
    the iterations p executes are ``owned[p].shift(-offset) ∩ [lo, hi]``,
    with ``offset``, ``lo``, ``hi`` evaluated against the environment.
    For a replicated LHS every processor executes the full range.
    """

    owned: tuple[StridedInterval, ...] | None  # None => replicated
    offset: Lin
    lo: Lin
    hi: Lin
    step: int = 1

    def iterations(self, proc: int, env: Env) -> StridedInterval:
        lo = self.lo.eval(env)
        hi = self.hi.eval(env)
        base = StridedInterval(lo, hi, self.step)
        if self.owned is None:
            return base
        off = self.offset.eval(env)
        return self.owned[proc].shift(-off).intersect(base)

    def n_procs(self) -> int:
        return len(self.owned) if self.owned is not None else 1


def iteration_spec(
    stmt: ParallelAssign | Reduce, decl: ArrayDecl, n_procs: int
) -> IterSpec:
    """Build the iteration spec for a parallel statement.

    For :class:`Reduce` the ``decl`` is the (first) referenced array — each
    processor reduces over its owned iterations of that array, the usual
    HPF lowering for reduction intrinsics.
    """
    if isinstance(stmt, ParallelAssign):
        last = stmt.home_ref.last
        if isinstance(last, At):
            raise ValueError(
                "single-owner statements have no iteration spec; "
                "use owner_of_at() instead"
            )
        assert isinstance(last, LoopIdx)
        offset = last.offset
        loop = stmt.loop
    else:
        offset = Lin(0)
        loop = stmt.loop
    assert loop is not None

    dist = distribution_of(decl, n_procs)
    extent = decl.extent
    if decl.dist == "replicated":
        owned = None
    else:
        owned = tuple(
            StridedInterval.from_range(dist.owned_indices(p, extent))
            for p in range(n_procs)
        )
    return IterSpec(owned, offset, loop.lo, loop.hi, loop.step)


def owner_of_at(
    stmt: ParallelAssign, decl: ArrayDecl, n_procs: int, env: Env
) -> int:
    """Executing processor of a single-owner statement (LHS last = At)."""
    last = stmt.lhs.last
    if not isinstance(last, At):
        raise ValueError("owner_of_at needs an At LHS")
    dist = distribution_of(decl, n_procs)
    return dist.owner(last.index.eval(env), decl.extent)
