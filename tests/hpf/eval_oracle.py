"""The naive expression evaluator, kept as the test oracle.

This is ``repro.hpf.eval.eval_expr`` as it was before operands were
overwritten in place: every operator allocates a fresh result.  The
in-place evaluator must agree with it byte for byte.  :func:`run_program`
walks a whole program through it, independently of
``repro.runtime.phases``: the oracle of a program's numerics record.
"""

from __future__ import annotations

import numpy as np

from repro.hpf.ast import (
    Bin,
    Dot,
    Lit,
    ParallelAssign,
    Reduce,
    Ref,
    ScalarRef,
    SeqLoop,
    Un,
)
from repro.hpf.eval import EvalError, _ref_key, loop_bounds


def eval_expr(expr, arrays, scalars, env, loop_lo, loop_hi, loop_step=1):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, ScalarRef):
        return scalars[expr.name]
    if isinstance(expr, Ref):
        return arrays[expr.array][
            _ref_key(expr, arrays, env, loop_lo, loop_hi, loop_step)
        ]
    if isinstance(expr, Bin):
        lhs = eval_expr(expr.lhs, arrays, scalars, env, loop_lo, loop_hi, loop_step)
        rhs = eval_expr(expr.rhs, arrays, scalars, env, loop_lo, loop_hi, loop_step)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        return lhs / rhs
    if isinstance(expr, Dot):
        mat = arrays[expr.mat.array][
            _ref_key(expr.mat, arrays, env, loop_lo, loop_hi, loop_step)
        ]
        vec = arrays[expr.vec.array][
            _ref_key(expr.vec, arrays, env, loop_lo, loop_hi, loop_step)
        ]
        return vec @ mat
    if isinstance(expr, Un):
        val = eval_expr(expr.operand, arrays, scalars, env, loop_lo, loop_hi, loop_step)
        if expr.op == "neg":
            return -val
        if expr.op == "abs":
            return np.abs(val)
        if expr.op == "sqrt":
            return np.sqrt(val)
        return np.exp(val)
    raise EvalError(f"cannot evaluate {expr!r}")


def eval_parallel_assign(stmt, arrays, scalars, env) -> None:
    lo, hi, step = loop_bounds(stmt, env)
    if hi < lo:
        return
    value = eval_expr(stmt.rhs, arrays, scalars, env, lo, hi, step)
    arrays[stmt.lhs.array][_ref_key(stmt.lhs, arrays, env, lo, hi, step)] = value


def eval_reduce(stmt, arrays, scalars, env) -> float:
    lo, hi, step = loop_bounds(stmt, env)
    if hi < lo:
        value = 0.0
    else:
        data = eval_expr(stmt.rhs, arrays, scalars, env, lo, hi, step)
        value = float({"sum": np.sum, "max": np.max, "min": np.min}[stmt.op](data))
    scalars[stmt.target] = value
    return value


def eval_scalar_assign(stmt, scalars) -> float:
    scalars[stmt.target] = float(eval_expr(stmt.rhs, {}, scalars, {}, 0, 0))
    return scalars[stmt.target]


def run_program(program):
    """``(arrays, scalars)`` after running ``program`` from its initial
    data, statement by statement, sequential loops unrolled here."""
    arrays = {d.name: np.zeros(d.shape, order="F") for d in program.arrays.values()}
    for name, fn in program.initializers.items():
        arrays[name][...] = np.asarray(fn(arrays[name].shape), dtype=np.float64)
    scalars = dict(program.scalars)

    def visit(body, env):
        for stmt in body:
            if isinstance(stmt, SeqLoop):
                for v in range(stmt.lo.eval(env), stmt.hi.eval(env) + 1):
                    visit(stmt.body, {**env, stmt.var: v})
            elif isinstance(stmt, ParallelAssign):
                eval_parallel_assign(stmt, arrays, scalars, env)
            elif isinstance(stmt, Reduce):
                eval_reduce(stmt, arrays, scalars, env)
            else:
                eval_scalar_assign(stmt, scalars)

    visit(program.body, {})
    return arrays, scalars
