"""Access-set analysis — the paper's Section 4.1.

For each parallel loop and each processor ``p`` we compute:

* the iterations ``p`` executes (owner-computes over the home reference),
* the array sections ``p`` reads and writes,
* the **non-owner-read** and **non-owner-write** sets — the set difference
  of what ``p`` accesses and what ``p`` owns — and
* the pairwise :class:`Transfer` list: which owner must supply which
  section to which accessor.

Everything is *parametric* in problem symbols and enclosing sequential
loop variables (an :class:`LoopAccess` holds symbolic patterns), and is
instantiated against a concrete environment at run time —
:meth:`LoopAccess.instantiate` is memoized since time-step loops replay the
same environment every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sections import Section, StridedInterval
from repro.core.symbolic import Env, Lin
from repro.hpf.ast import (
    ArrayDecl,
    At,
    LoopIdx,
    ParallelAssign,
    Program,
    Reduce,
    Ref,
    Slice,
)
from repro.hpf.lowering import IterSpec, distribution_of, iteration_spec

__all__ = ["LoopAccess", "LoopInstance", "RefPattern", "Transfer", "analyze_loop"]


# ===================================================================== #
# parametric per-reference access patterns
# ===================================================================== #
@dataclass(frozen=True)
class RefPattern:
    """How one reference touches its array, as a function of the iteration
    set: last-dimension columns are the iterations shifted (``shift``), a
    single absolute column (``point``), or an absolute range (``slice``)."""

    array: str
    inner: tuple[tuple[Lin, Lin], ...]
    kind: str                      # 'shift' | 'point' | 'slice'
    a: Lin = Lin(0)                # shift offset / point index / slice lo
    b: Lin = Lin(0)                # slice hi

    @staticmethod
    def from_ref(ref: Ref, decl: ArrayDecl) -> "RefPattern":
        inner = []
        for sub in ref.inner:
            if isinstance(sub, Slice):
                inner.append((sub.lo, sub.hi))
            elif isinstance(sub, At):
                inner.append((sub.index, sub.index))
            else:  # pragma: no cover - rejected by AST validation
                raise ValueError("LoopIdx cannot appear in an inner dimension")
        last = ref.last
        if isinstance(last, LoopIdx):
            return RefPattern(ref.array, tuple(inner), "shift", last.offset)
        if isinstance(last, At):
            return RefPattern(ref.array, tuple(inner), "point", last.index)
        return RefPattern(ref.array, tuple(inner), "slice", last.lo, last.hi)

    def columns(self, iters: StridedInterval, env: Env) -> StridedInterval:
        """Last-dim indices touched when executing ``iters``."""
        if iters.is_empty:
            return StridedInterval.empty()
        if self.kind == "shift":
            return iters.shift(self.a.eval(env))
        if self.kind == "point":
            v = self.a.eval(env)
            return StridedInterval.point(v)
        return StridedInterval(self.a.eval(env), self.b.eval(env))

    def section(self, iters: StridedInterval, env: Env) -> Section:
        inner = tuple((lo.eval(env), hi.eval(env)) for lo, hi in self.inner)
        return Section(inner, self.columns(iters, env))


# ===================================================================== #
# transfers
# ===================================================================== #
@dataclass(frozen=True)
class Transfer:
    """One producer→consumer section movement required by a loop.

    ``kind == 'read'``: ``dst`` reads data owned by ``src`` (the classic
    producer/consumer case — owner sends before the loop).
    ``kind == 'write'``: ``dst`` will *write* data owned by ``src``; the
    owner sends the blocks before the loop and receives a flush after it.
    """

    array: str
    section: Section
    src: int
    dst: int
    kind: str  # 'read' | 'write'

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise ValueError(f"bad transfer kind {self.kind!r}")
        if self.src == self.dst:
            raise ValueError("transfer between a node and itself")


# ===================================================================== #
# per-loop analysis results
# ===================================================================== #
@dataclass
class LoopInstance:
    """Concrete (environment-bound) access information for one loop."""

    n_procs: int
    iterations: tuple[StridedInterval, ...]
    # per proc: list of (array, Section)
    reads: tuple[tuple[tuple[str, Section], ...], ...]
    writes: tuple[tuple[tuple[str, Section], ...], ...]
    non_owner_reads: tuple[tuple[tuple[str, Section], ...], ...]
    non_owner_writes: tuple[tuple[tuple[str, Section], ...], ...]
    transfers: tuple[Transfer, ...]


@dataclass
class LoopAccess:
    """Parametric analysis of one parallel statement."""

    stmt: ParallelAssign | Reduce
    n_procs: int
    iter_spec: IterSpec | None            # None for single-owner statements
    single_owner_col: Lin | None
    lhs_pattern: RefPattern | None        # None for reductions
    read_patterns: tuple[RefPattern, ...]
    decls: dict[str, ArrayDecl]
    _cache: dict = field(default_factory=dict)
    _owned: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def owned_columns(self, array: str, proc: int) -> StridedInterval:
        """Ownership is static, so each (array, proc) is derived once."""
        hit = self._owned.get((array, proc))
        if hit is None:
            decl = self.decls[array]
            if decl.dist == "replicated":
                hit = StridedInterval(0, decl.extent - 1)
            else:
                dist = distribution_of(decl, self.n_procs)
                hit = StridedInterval.from_range(dist.owned_indices(proc, decl.extent))
            self._owned[(array, proc)] = hit
        return hit

    def _iterations(self, env: Env) -> tuple[StridedInterval, ...]:
        if self.iter_spec is not None:
            return tuple(
                self.iter_spec.iterations(p, env) for p in range(self.n_procs)
            )
        # Single-owner: the owner "iterates" exactly once; others are idle.
        col = self.single_owner_col.eval(env)  # type: ignore[union-attr]
        assert self.lhs_pattern is not None
        decl = self.decls[self.lhs_pattern.array]
        owner = distribution_of(decl, self.n_procs).owner(col, decl.extent)
        return tuple(
            StridedInterval.point(col) if p == owner else StridedInterval.empty()
            for p in range(self.n_procs)
        )

    # ------------------------------------------------------------------ #
    def instantiate(self, env: Env) -> LoopInstance:
        """Bind the environment; memoized on the used symbol values."""
        key = tuple(sorted((k, env[k]) for k in self._used_symbols() if k in env))
        hit = self._cache.get(key)
        if hit is not None:
            return hit

        iters = self._iterations(env)
        reads: list[tuple[tuple[str, Section], ...]] = []
        writes: list[tuple[tuple[str, Section], ...]] = []
        nor: list[tuple[tuple[str, Section], ...]] = []
        now_: list[tuple[tuple[str, Section], ...]] = []
        transfers: list[Transfer] = []

        for p in range(self.n_procs):
            it = iters[p]
            p_reads = []
            p_writes = []
            p_nor = []
            p_now = []
            if not it.is_empty:
                for pat in self.read_patterns:
                    sec = pat.section(it, env)
                    if sec.is_empty:
                        continue
                    p_reads.append((pat.array, sec))
                    if self.decls[pat.array].dist != "replicated":
                        owned = self.owned_columns(pat.array, p)
                        for piece in sec.difference_last(owned):
                            p_nor.append((pat.array, piece))
                            transfers.extend(
                                self._split_by_owner(pat.array, piece, p, "read")
                            )
                if self.lhs_pattern is not None:
                    wsec = self.lhs_pattern.section(it, env)
                    if not wsec.is_empty:
                        p_writes.append((self.lhs_pattern.array, wsec))
                        if self.decls[self.lhs_pattern.array].dist != "replicated":
                            owned = self.owned_columns(self.lhs_pattern.array, p)
                            for piece in wsec.difference_last(owned):
                                p_now.append((self.lhs_pattern.array, piece))
                                transfers.extend(
                                    self._split_by_owner(
                                        self.lhs_pattern.array, piece, p, "write"
                                    )
                                )
            reads.append(tuple(p_reads))
            writes.append(tuple(p_writes))
            nor.append(tuple(p_nor))
            now_.append(tuple(p_now))

        inst = LoopInstance(
            self.n_procs,
            iters,
            tuple(reads),
            tuple(writes),
            tuple(nor),
            tuple(now_),
            tuple(transfers),
        )
        self._cache[key] = inst
        return inst

    def _split_by_owner(
        self, array: str, piece: Section, accessor: int, kind: str
    ) -> list[Transfer]:
        """Split a non-owner section piece by its owning processors."""
        out = []
        for q in range(self.n_procs):
            if q == accessor:
                continue
            part = piece.intersect_last(self.owned_columns(array, q))
            if not part.is_empty:
                if kind == "read":
                    out.append(Transfer(array, part, src=q, dst=accessor, kind="read"))
                else:
                    out.append(Transfer(array, part, src=q, dst=accessor, kind="write"))
        return out

    def _used_symbols(self) -> frozenset[str]:
        syms: set[str] = set()
        for pat in self.read_patterns + ((self.lhs_pattern,) if self.lhs_pattern else ()):
            syms |= pat.a.symbols() | pat.b.symbols()
            for lo, hi in pat.inner:
                syms |= lo.symbols() | hi.symbols()
        if self.iter_spec is not None:
            syms |= (
                self.iter_spec.lo.symbols()
                | self.iter_spec.hi.symbols()
                | self.iter_spec.offset.symbols()
            )
        if self.single_owner_col is not None:
            syms |= self.single_owner_col.symbols()
        return frozenset(syms)


# ===================================================================== #
def analyze_loop(
    stmt: ParallelAssign | Reduce, program: Program, n_procs: int
) -> LoopAccess:
    """Compute the parametric access information for one statement."""
    decls = program.arrays
    if isinstance(stmt, ParallelAssign):
        lhs_pat = RefPattern.from_ref(stmt.lhs, decls[stmt.lhs.array])
        read_pats = tuple(
            RefPattern.from_ref(r, decls[r.array]) for r in stmt.rhs.refs()
        )
        if isinstance(stmt.home_ref.last, At):
            return LoopAccess(
                stmt,
                n_procs,
                iter_spec=None,
                single_owner_col=stmt.lhs.last.index,  # type: ignore[union-attr]
                lhs_pattern=lhs_pat,
                read_patterns=read_pats,
                decls=decls,
            )
        spec = iteration_spec(stmt, decls[stmt.home_ref.array], n_procs)
        return LoopAccess(
            stmt,
            n_procs,
            iter_spec=spec,
            single_owner_col=None,
            lhs_pattern=lhs_pat,
            read_patterns=read_pats,
            decls=decls,
        )

    # Reduction: distribute over the first loop-indexed reference.
    read_pats = tuple(RefPattern.from_ref(r, decls[r.array]) for r in stmt.rhs.refs())
    home = None
    for ref in stmt.rhs.refs():
        if isinstance(ref.last, LoopIdx) and decls[ref.array].dist != "replicated":
            home = ref
            break
    if home is None:
        raise ValueError(
            f"reduction {stmt.label!r} has no distributed loop-indexed reference"
        )
    home_decl = decls[home.array]
    dist = distribution_of(home_decl, n_procs)
    owned = tuple(
        StridedInterval.from_range(dist.owned_indices(p, home_decl.extent))
        for p in range(n_procs)
    )
    assert isinstance(home.last, LoopIdx)
    spec = IterSpec(owned, home.last.offset, stmt.loop.lo, stmt.loop.hi, stmt.loop.step)
    return LoopAccess(
        stmt,
        n_procs,
        iter_spec=spec,
        single_owner_col=None,
        lhs_pattern=None,
        read_patterns=read_pats,
        decls=decls,
    )
