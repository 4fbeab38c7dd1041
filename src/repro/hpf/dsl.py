"""Builder API for mini-HPF programs.

Example — a 1-D Jacobi sweep::

    from repro.hpf.dsl import ProgramBuilder, I, S

    b = ProgramBuilder("jacobi1d")
    a = b.array("a", (1024,), dist="block")
    new = b.array("new", (1024,), dist="block")
    with b.timesteps(100):
        b.forall(1, 1022, new[I], (a[I - 1] + a[I + 1]) * 0.5)
        b.forall(1, 1022, a[I], new[I])
    prog = b.build()

``I`` is the parallel loop index (``I + k`` shifts it); ``S(lo, hi)`` is an
absolute inclusive slice; a bare int / Sym / Lin subscript means a single
index (``At``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from repro.core.symbolic import Lin, LinLike, Sym, as_lin
from repro.hpf.ast import (
    ArrayDecl,
    At,
    Expr,
    ExprLike,
    LoopIdx,
    LoopSpec,
    ParallelAssign,
    Program,
    Reduce,
    Ref,
    ScalarAssign,
    ScalarRef,
    SeqLoop,
    Slice,
    Stmt,
    Subscript,
    Un,
    as_expr,
)

__all__ = ["I", "IdxExpr", "ProgramBuilder", "S", "sqrt", "ABS"]


@dataclass(frozen=True)
class IdxExpr:
    """The parallel loop index with an affine offset (builder-side)."""

    offset: Lin = Lin(0)

    def __add__(self, k: LinLike) -> "IdxExpr":
        return IdxExpr(self.offset + as_lin(k))

    def __sub__(self, k: LinLike) -> "IdxExpr":
        return IdxExpr(self.offset - as_lin(k))


#: The canonical parallel loop index.
I = IdxExpr()


def S(lo: LinLike, hi: LinLike) -> Slice:
    """An absolute inclusive slice ``lo:hi``."""
    return Slice(lo, hi)


def sqrt(x: ExprLike) -> Un:
    return Un("sqrt", as_expr(x))


def ABS(x: ExprLike) -> Un:
    return Un("abs", as_expr(x))


SubscriptLike = Union[IdxExpr, Slice, int, Sym, Lin]


def _as_subscript(sub: SubscriptLike) -> Subscript:
    if isinstance(sub, IdxExpr):
        return LoopIdx(sub.offset)
    if isinstance(sub, Slice):
        return sub
    if isinstance(sub, (int, Sym, Lin)):
        return At(as_lin(sub))
    raise TypeError(f"bad subscript {sub!r}")


class ArrayHandle:
    """Builder-side handle; indexing yields a :class:`Ref`."""

    def __init__(self, decl: ArrayDecl) -> None:
        self.decl = decl

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.decl.shape

    def __getitem__(self, subs: SubscriptLike | tuple[SubscriptLike, ...]) -> Ref:
        if not isinstance(subs, tuple):
            subs = (subs,)
        if len(subs) != self.decl.rank:
            raise IndexError(
                f"{self.name}: {len(subs)} subscripts for rank {self.decl.rank}"
            )
        return Ref(self.name, tuple(_as_subscript(s) for s in subs))

    def full(self) -> Ref:
        """A reference to the entire array (Slice over every dim, LoopIdx last)."""
        subs: list[Subscript] = [Slice(0, n - 1) for n in self.decl.shape[:-1]]
        subs.append(LoopIdx(0))
        return Ref(self.name, tuple(subs))


class ProgramBuilder:
    """Accumulates declarations and statements into a :class:`Program`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._arrays: dict[str, ArrayDecl] = {}
        self._scalars: dict[str, float] = {}
        self._initializers: dict[str, object] = {}
        self._subroutines: dict[str, object] = {}
        self._body: list[Stmt] = []
        self._stack: list[list[Stmt]] = [self._body]
        self._labels = 0

    # ------------------------------------------------------------------ #
    # declarations
    # ------------------------------------------------------------------ #
    def array(
        self,
        name: str,
        shape: Sequence[int],
        dist: str = "block",
        init=None,
    ) -> ArrayHandle:
        """Declare a distributed array; ``init`` is an optional
        ``fn(shape) -> ndarray`` applied at allocation (untimed input)."""
        if name in self._arrays:
            raise ValueError(f"array {name!r} already declared")
        decl = ArrayDecl(name, tuple(shape), dist)
        self._arrays[name] = decl
        if init is not None:
            self._initializers[name] = init
        return ArrayHandle(decl)

    def scalar_decl(self, name: str, init: float = 0.0) -> ScalarRef:
        self._scalars[name] = float(init)
        return ScalarRef(name)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #
    def _auto_label(self, prefix: str) -> str:
        self._labels += 1
        return f"{prefix}{self._labels}"

    def forall(
        self,
        lo: LinLike,
        hi: LinLike,
        lhs: Ref,
        rhs: ExprLike,
        label: str = "",
        on_home: Ref | None = None,
        step: int = 1,
    ) -> ParallelAssign:
        """An INDEPENDENT parallel loop over the distributed dimension.

        ``on_home`` applies the HPF ON HOME directive: iterations are
        partitioned by that reference's owner instead of the LHS owner.
        ``step`` strides the iteration space (red-black orderings).
        """
        stmt = ParallelAssign(
            lhs,
            as_expr(rhs),
            LoopSpec("j", lo, hi, step),
            label or self._auto_label("L"),
            on_home,
        )
        self._stack[-1].append(stmt)
        return stmt

    def assign_at(self, lhs: Ref, rhs: ExprLike, label: str = "") -> ParallelAssign:
        """A single-owner statement: LHS last subscript must be ``At``."""
        stmt = ParallelAssign(lhs, as_expr(rhs), None, label or self._auto_label("A"))
        self._stack[-1].append(stmt)
        return stmt

    def reduce(
        self,
        target: str,
        lo: LinLike,
        hi: LinLike,
        rhs: ExprLike,
        op: str = "sum",
        label: str = "",
    ) -> Reduce:
        if target not in self._scalars:
            self._scalars[target] = 0.0
        stmt = Reduce(
            target, as_expr(rhs), LoopSpec("j", lo, hi), op, label or self._auto_label("R")
        )
        self._stack[-1].append(stmt)
        return stmt

    def scalar(self, target: str, rhs: ExprLike) -> ScalarAssign:
        if target not in self._scalars:
            self._scalars[target] = 0.0
        stmt = ScalarAssign(target, as_expr(rhs), self._auto_label("S"))
        self._stack[-1].append(stmt)
        return stmt

    # ------------------------------------------------------------------ #
    # sequential loops
    # ------------------------------------------------------------------ #
    @contextmanager
    def seq(self, var: str, lo: LinLike, hi: LinLike) -> Iterator[Sym]:
        """Sequential loop; yields the loop variable as a Sym."""
        body: list[Stmt] = []
        self._stack.append(body)
        try:
            yield Sym(var)
        finally:
            self._stack.pop()
            self._stack[-1].append(SeqLoop(var, lo, hi, body))

    @contextmanager
    def timesteps(self, n: int) -> Iterator[Sym]:
        """Sugar for the ubiquitous time-step loop ``t = 0 .. n-1``."""
        with self.seq("t", 0, n - 1) as sym:
            yield sym

    # ------------------------------------------------------------------ #
    # subroutines (resolved by full inlining at build())
    # ------------------------------------------------------------------ #
    @contextmanager
    def subroutine(self, name: str, **params) -> Iterator[tuple[ArrayHandle, ...]]:
        """Define a subroutine over formal array parameters.

        Each keyword gives a formal's shape (and optionally distribution)::

            with b.subroutine("smooth", src=(64, 64), dst=(64, 64)) as (s, d):
                b.forall(1, 62, d[S(1, 62), I],
                         (s[S(1, 62), I - 1] + s[S(1, 62), I + 1]) * 0.5)
            b.call("smooth", "u", "unew")

        A value may be ``shape_tuple`` or ``(shape_tuple, dist_str)``.
        Calls are expanded inline at :meth:`build`; actuals must conform to
        the formals' shapes and distributions.
        """
        from repro.hpf.procedures import SubroutineDef, SubroutineError

        if name in self._subroutines:
            raise SubroutineError(f"subroutine {name!r} already defined")
        decls = []
        handles = []
        for pname, spec in params.items():
            if pname in self._arrays:
                raise SubroutineError(
                    f"formal {pname!r} shadows a declared array"
                )
            if (
                isinstance(spec, tuple)
                and len(spec) == 2
                and isinstance(spec[0], tuple)
            ):
                shape, dist = spec
            else:
                shape, dist = spec, "block"
            decl = ArrayDecl(pname, tuple(shape), dist)
            decls.append(decl)
            handles.append(ArrayHandle(decl))
        body: list[Stmt] = []
        self._stack.append(body)
        try:
            yield tuple(handles)
        finally:
            self._stack.pop()
        self._subroutines[name] = SubroutineDef(
            name, tuple(params), tuple(body), tuple(decls)
        )

    def call(self, name: str, *args: str | ArrayHandle) -> None:
        """Emit a subroutine call (inlined at build())."""
        from repro.hpf.procedures import CallStmt

        names = tuple(a.name if isinstance(a, ArrayHandle) else a for a in args)
        self._stack[-1].append(CallStmt(name, names))

    # ------------------------------------------------------------------ #
    def build(self) -> Program:
        if len(self._stack) != 1:
            raise RuntimeError("unclosed sequential loop")
        body = tuple(self._body)
        if self._subroutines:
            from repro.hpf.procedures import inline_calls

            body = inline_calls(
                body, self._subroutines, list(self._arrays), dict(self._arrays)
            )
        return Program(
            self.name,
            dict(self._arrays),
            body,
            dict(self._scalars),
            dict(self._initializers),
        )
