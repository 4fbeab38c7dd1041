"""Numeric evaluation of mini-HPF statements (vectorized NumPy).

Evaluation is *global* and functional: a parallel loop's full iteration
space is computed in one vectorized step against the single backing store,
independent of the processor partitioning.  This matches INDEPENDENT-loop
semantics (no cross-iteration dependences), because NumPy fully
materializes the right-hand side before the assignment lands.

Every subscript keeps its axis (``At`` becomes a length-1 slice), so mixed
subscripts broadcast naturally — e.g. the LU rank-1 update
``a[i, j] -= a[i, k] * a[k, j]`` evaluates as a (rows, 1) × (1, cols)
outer product without special cases.

A parallel assignment allocates its temporaries in storage (Fortran)
order.  NumPy would lay that outer product out in C order, and every
later pass over it — the subtraction from the storage view, the store
back into it — would then walk it against the storage layout.
Elementwise results do not depend on layout.  A reduction keeps NumPy's
own layout: ``np.sum``'s pairwise summation order follows it, and so
would the REDUCE bits.
"""

from __future__ import annotations

import operator
from typing import Mapping

import numpy as np

from repro.core.symbolic import Env
from repro.hpf.ast import (
    At,
    Bin,
    Dot,
    Expr,
    Lit,
    LoopIdx,
    ParallelAssign,
    Reduce,
    Ref,
    ScalarAssign,
    ScalarRef,
    Un,
)

__all__ = ["eval_expr", "eval_parallel_assign", "eval_reduce", "eval_scalar_assign"]

Arrays = Mapping[str, np.ndarray]
Scalars = dict[str, float]


class EvalError(RuntimeError):
    """Out-of-bounds subscript or malformed statement at evaluation time.

    Raised by the ``eval_*`` statement functions with the statement's label
    in front (``forall@3: a axis 1: ...``), so a parsed program's error
    names its line.
    """


def _located(stmt, exc: EvalError) -> EvalError:
    return EvalError(f"{stmt.label}: {exc}") if stmt.label else exc


def _ref_key(
    ref: Ref, arrays: Arrays, env: Env, loop_lo: int, loop_hi: int, loop_step: int = 1
):
    """NumPy index tuple for a reference; every axis kept (len-1 for At).

    ``loop_step`` strides the loop-indexed axis (red-black orderings).
    """
    data = arrays[ref.array]
    key = []
    for axis, sub in enumerate(ref.subs):
        n = data.shape[axis]
        step = 1
        if isinstance(sub, LoopIdx):
            lo = loop_lo + sub.offset.eval(env)
            hi = loop_hi + sub.offset.eval(env)
            step = loop_step
        elif isinstance(sub, At):
            lo = hi = sub.index.eval(env)
        else:  # Slice
            lo = sub.lo.eval(env)
            hi = sub.hi.eval(env)
        if lo < 0 or hi >= n:
            raise EvalError(
                f"{ref.array} axis {axis}: [{lo}, {hi}] outside [0, {n})"
            )
        key.append(slice(lo, hi + 1, step))
    return tuple(key)


_BINARY = {
    "+": (operator.add, np.add),
    "-": (operator.sub, np.subtract),
    "*": (operator.mul, np.multiply),
    "/": (operator.truediv, np.true_divide),
}
_UNARY = {
    "neg": (operator.neg, np.negative),
    "abs": (np.abs, np.abs),
    "sqrt": (np.sqrt, np.sqrt),
    "exp": (np.exp, np.exp),
}


def _ownable(value) -> bool:
    return isinstance(value, np.ndarray) and value.dtype == np.float64


def _reusable(buf, other) -> bool:
    """May ``ufunc(..., out=buf)`` stand in for a fresh result?  Only when
    the result has ``buf``'s shape and dtype: ``other`` is a Python scalar
    or a same-dtype array that broadcasts *into* ``buf``."""
    if isinstance(other, np.ndarray):
        return other.dtype == buf.dtype and (
            other.shape == buf.shape
            or np.broadcast_shapes(buf.shape, other.shape) == buf.shape
        )
    return isinstance(other, (int, float))


def _eval(
    expr: Expr, arrays: Arrays, scalars: Scalars, env: Env, loop: tuple, order: str
):
    """``(value, owned)`` — ``owned`` marks a float array this evaluation
    allocated itself (a ufunc or matmul result), which a parent operator
    may overwrite in place.  Views of program storage are never owned, so
    storage is written only by the statement's final assignment; and the
    in-place form runs the same ufunc on the same operands in the same
    order, so every backend's numerics stay bit-identical to the naive
    one-temporary-per-operator evaluation.  A binary operator's fresh
    result is laid out in ``order``."""
    if isinstance(expr, Lit):
        return expr.value, False
    if isinstance(expr, ScalarRef):
        try:
            return scalars[expr.name], False
        except KeyError:
            raise EvalError(f"undefined scalar {expr.name!r}") from None
    if isinstance(expr, Ref):
        return arrays[expr.array][_ref_key(expr, arrays, env, *loop)], False
    if isinstance(expr, Bin):
        lhs, lhs_owned = _eval(expr.lhs, arrays, scalars, env, loop, order)
        rhs, rhs_owned = _eval(expr.rhs, arrays, scalars, env, loop, order)
        plain, ufunc = _BINARY[expr.op]
        if lhs_owned and _reusable(lhs, rhs):
            return ufunc(lhs, rhs, out=lhs), True
        if rhs_owned and _reusable(rhs, lhs):
            return ufunc(lhs, rhs, out=rhs), True
        if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
            value = ufunc(lhs, rhs, order=order)
        else:
            value = plain(lhs, rhs)
        return value, _ownable(value)
    if isinstance(expr, Dot):
        mat = arrays[expr.mat.array][_ref_key(expr.mat, arrays, env, *loop)]
        vec = arrays[expr.vec.array][_ref_key(expr.vec, arrays, env, *loop)]
        if mat.ndim != 2 or vec.ndim != 1 or mat.shape[0] != vec.shape[0]:
            raise EvalError(
                f"Dot shape mismatch: mat {mat.shape} vs vec {vec.shape}"
            )
        value = vec @ mat
        return value, _ownable(value)
    if isinstance(expr, Un):
        val, owned = _eval(expr.operand, arrays, scalars, env, loop, order)
        plain, ufunc = _UNARY[expr.op]
        if owned:
            return ufunc(val, out=val), True
        value = plain(val)
        return value, _ownable(value)
    raise EvalError(f"cannot evaluate {expr!r}")


def eval_expr(
    expr: Expr,
    arrays: Arrays,
    scalars: Scalars,
    env: Env,
    loop_lo: int,
    loop_hi: int,
    loop_step: int = 1,
    order: str = "K",
):
    """Evaluate an expression over a concrete parallel-loop range.

    ``order`` lays out fresh temporaries as in NumPy (``"K"``: follow the
    operands; ``"F"``: Fortran order, the storage order).
    """
    return _eval(expr, arrays, scalars, env, (loop_lo, loop_hi, loop_step), order)[0]


def loop_bounds(stmt: ParallelAssign | Reduce, env: Env) -> tuple[int, int, int]:
    """Concrete inclusive loop bounds + step; hi < lo when empty."""
    if stmt.loop is None:
        # Single-owner statement: the "loop" is the single LHS column.
        assert isinstance(stmt, ParallelAssign)
        col = stmt.lhs.last.index.eval(env)  # type: ignore[union-attr]
        return col, col, 1
    lo = stmt.loop.lo.eval(env)
    hi = stmt.loop.hi.eval(env)
    step = stmt.loop.step
    if hi >= lo:
        hi = lo + (hi - lo) // step * step  # snap to the last iteration
    return lo, hi, step


def eval_parallel_assign(
    stmt: ParallelAssign, arrays: Arrays, scalars: Scalars, env: Env
) -> None:
    """Execute the full loop (all processors' work) in one step."""
    lo, hi, step = loop_bounds(stmt, env)
    if hi < lo:
        return
    try:
        value = eval_expr(stmt.rhs, arrays, scalars, env, lo, hi, step, order="F")
        key = _ref_key(stmt.lhs, arrays, env, lo, hi, step)
    except EvalError as exc:
        raise _located(stmt, exc) from None
    arrays[stmt.lhs.array][key] = value


def eval_reduce(stmt: Reduce, arrays: Arrays, scalars: Scalars, env: Env) -> float:
    """Evaluate a global reduction; returns (and stores) the scalar."""
    lo, hi, step = loop_bounds(stmt, env)
    if hi < lo:
        value = 0.0
    else:
        try:
            data = eval_expr(stmt.rhs, arrays, scalars, env, lo, hi, step)
        except EvalError as exc:
            raise _located(stmt, exc) from None
        if stmt.op == "sum":
            value = float(np.sum(data))
        elif stmt.op == "max":
            value = float(np.max(data))
        else:
            value = float(np.min(data))
    scalars[stmt.target] = value
    return value


def eval_scalar_assign(stmt: ScalarAssign, scalars: Scalars) -> float:
    try:
        value = eval_expr(stmt.rhs, {}, scalars, {}, 0, 0)
    except EvalError as exc:
        raise _located(stmt, exc) from None
    scalars[stmt.target] = float(value)
    return scalars[stmt.target]
