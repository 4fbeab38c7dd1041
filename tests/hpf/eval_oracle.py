"""The naive expression evaluator, kept as the test oracle.

This is ``repro.hpf.eval.eval_expr`` as it was before operands were
overwritten in place: every operator allocates a fresh result.  The
in-place evaluator must agree with it byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.hpf.ast import Bin, Dot, Lit, Ref, ScalarRef, Un
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
