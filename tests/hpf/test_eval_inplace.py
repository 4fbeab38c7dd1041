"""In-place evaluation ≡ the naive evaluator, byte for byte.

``repro.hpf.eval`` overwrites temporaries it owns instead of allocating
one per operator, and a parallel assignment allocates them in storage
(Fortran) order.  That must change nothing observable: every statement
of every app leaves the same bytes in the same arrays as the naive
evaluator (``eval_oracle``), and program storage is written only through
the statement's own LHS key.  A reduction keeps NumPy's layout, which
``np.sum``'s summation order follows.
"""

import numpy as np
import pytest

from repro import APPS
from repro.core.symbolic import Sym
from repro.hpf import eval as hpf_eval
from repro.hpf.ast import ParallelAssign, Reduce, ScalarAssign, SeqLoop, Un
from repro.hpf.dsl import ABS, I, ProgramBuilder, S, sqrt
from repro.hpf.eval import (
    _ref_key,
    eval_expr,
    eval_parallel_assign,
    eval_reduce,
    eval_scalar_assign,
    loop_bounds,
)
from repro.runtime.phases import apply_initializers
from tests.hpf import eval_oracle

PARAMS = {
    "pde": dict(n=12, iters=2),
    "shallow": dict(rows=17, cols=9, iters=2),
    "grav": dict(n=9, iters=1),
    "lu": dict(n=16),
    "cg": dict(rows=12, cols=24, iters=3),
    "jacobi": dict(n=16, iters=2),
}


def fresh_state(program):
    arrays = {d.name: np.zeros(d.shape, order="F") for d in program.arrays.values()}
    apply_initializers(program, arrays)
    return arrays, dict(program.scalars)


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("app", sorted(PARAMS))
def test_every_app_statement_matches_naive_evaluator(app):
    program = APPS[app].program(**PARAMS[app])
    arrays, scalars = fresh_state(program)
    naive_arrays, naive_scalars = fresh_state(program)
    statements = 0

    def visit(body, env):
        nonlocal statements
        for stmt in body:
            if isinstance(stmt, SeqLoop):
                for v in range(stmt.lo.eval(env), stmt.hi.eval(env) + 1):
                    visit(stmt.body, {**env, stmt.var: v})
                continue
            statements += 1
            if isinstance(stmt, ScalarAssign):
                eval_scalar_assign(stmt, scalars)
                eval_scalar_assign(stmt, naive_scalars)
            elif isinstance(stmt, Reduce):
                before = {k: v.copy() for k, v in arrays.items()}
                eval_reduce(stmt, arrays, scalars, env)
                eval_oracle.eval_reduce(stmt, naive_arrays, naive_scalars, env)
                assert all(same_bytes(arrays[k], before[k]) for k in arrays)
            else:
                assert isinstance(stmt, ParallelAssign)
                before = {k: v.copy() for k, v in arrays.items()}
                eval_parallel_assign(stmt, arrays, scalars, env)
                eval_oracle.eval_parallel_assign(stmt, naive_arrays, naive_scalars, env)
                # Storage changes only under the LHS key ...
                lo, hi, step = loop_bounds(stmt, env)
                if hi >= lo:
                    key = _ref_key(stmt.lhs, arrays, env, lo, hi, step)
                    before[stmt.lhs.array][key] = arrays[stmt.lhs.array][key]
                assert all(same_bytes(arrays[k], before[k]) for k in arrays), stmt.label
                # ... and holds what the naive evaluator computed.
                assert same_bytes(arrays[stmt.lhs.array], naive_arrays[stmt.lhs.array]), stmt.label
            assert scalars == naive_scalars

    visit(program.body, {})
    assert statements > 0
    assert all(same_bytes(arrays[k], naive_arrays[k]) for k in arrays)


class TestOperandShapes:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.b = ProgramBuilder("p")
        self.a = self.b.array("a", (6, 8))
        self.w = self.b.array("w", (6, 8))
        self.arrays = {
            "a": np.asfortranarray(rng.standard_normal((6, 8))),
            "w": np.asfortranarray(rng.standard_normal((6, 8))),
        }
        self.scalars = {"alpha": 0.3}

    def both(self, expr, env=None, lo=1, hi=6):
        env = env or {}
        before = {k: v.copy() for k, v in self.arrays.items()}
        got = eval_expr(expr, self.arrays, self.scalars, env, lo, hi)
        want = eval_oracle.eval_expr(expr, self.arrays, self.scalars, env, lo, hi)
        assert all(same_bytes(self.arrays[k], before[k]) for k in before)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        return got

    def test_bare_reference_is_a_view_and_stays_intact(self):
        got = self.both(self.a[S(0, 5), I])
        assert np.shares_memory(got, self.arrays["a"])

    def test_scalar_broadcast_on_either_side(self):
        a, alpha = self.a, self.b.scalar_decl("alpha", 0.3)
        self.both((a[S(0, 5), I] + a[S(0, 5), I - 1]) * alpha)
        self.both(alpha * (a[S(0, 5), I] + a[S(0, 5), I - 1]))
        self.both(2.0 / (a[S(0, 5), I] * a[S(0, 5), I] + 1.0) - alpha)

    def test_owned_temporary_on_the_right_only(self):
        a, w = self.a, self.w
        self.both(a[S(0, 5), I] - (w[S(0, 5), I] * w[S(0, 5), I + 1]))
        self.both(a[S(0, 5), I] / (w[S(0, 5), I] * w[S(0, 5), I] + 1.0))

    def test_rank_one_update_broadcasts_out_of_its_operands(self):
        # (rows, 1) x (1, cols): neither operand can hold the result.
        a, k = self.a, Sym("k")
        expr = a[S(k + 1, 5), I] - a[S(k + 1, 5), k] * a[k, I]
        got = self.both(expr, env={"k": 1}, lo=2, hi=7)
        assert got.shape == (4, 6)

    def test_owned_column_times_row_is_not_overwritten(self):
        # An *owned* (rows, 1) temporary against a (1, cols) view.
        a, k = self.a, Sym("k")
        expr = (a[S(0, 5), k] * 2.0) * a[k, I]
        assert self.both(expr, env={"k": 0}, lo=0, hi=7).shape == (6, 8)

    def test_column_broadcast_into_an_owned_block(self):
        a, k = self.a, Sym("k")
        self.both((a[S(0, 5), I] * 2.0) - a[S(0, 5), k], env={"k": 3})

    def test_unary_chain(self):
        a = self.a
        self.both(Un("exp", sqrt(ABS(-(a[S(0, 5), I] * a[S(0, 5), I + 1])))))
        self.both(-a[S(0, 5), I])  # operand is a view: result must be fresh

    def test_integer_storage_is_never_used_as_an_output_buffer(self):
        self.arrays["a"] = np.asfortranarray(np.arange(48).reshape(6, 8))
        a = self.a
        self.both((a[S(0, 5), I] + a[S(0, 5), I - 1]) / 4.0)

    def test_lhs_aliased_statement(self):
        # lu: a[i, j] = a[i, j] - a[i, k] * a[k, j] reads what it writes.
        a, k = self.a, Sym("k")
        stmt = self.b.forall(
            k + 1, 7, a[S(k + 1, 5), I], a[S(k + 1, 5), I] - a[S(k + 1, 5), k] * a[k, I]
        )
        naive = {name: v.copy(order="F") for name, v in self.arrays.items()}
        eval_parallel_assign(stmt, self.arrays, {}, {"k": 2})
        eval_oracle.eval_parallel_assign(stmt, naive, {}, {"k": 2})
        assert all(same_bytes(self.arrays[n], naive[n]) for n in naive)


class TestStorageOrder:
    """lu's rank-1 update broadcasts a (rows, 1) by a (1, cols) operand."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.b = ProgramBuilder("p")
        self.a = self.b.array("a", (64, 64))
        self.w = self.b.array("w", (64, 64))
        self.arrays = {
            name: np.asfortranarray(rng.standard_normal((64, 64))) for name in "aw"
        }

    def test_broadcast_temporary_is_fortran_ordered(self):
        a, k = self.a, Sym("k")
        expr = a[S(k + 1, 63), k] * a[k, I]
        env = {"k": 4}
        got = eval_expr(expr, self.arrays, {}, env, 5, 63, order="F")
        want = eval_oracle.eval_expr(expr, self.arrays, {}, env, 5, 63)
        assert want.flags.c_contiguous and not want.flags.f_contiguous
        assert got.flags.f_contiguous and not got.flags.c_contiguous
        assert same_bytes(got, want)

    def test_broadcasting_statement_matches_oracle(self, monkeypatch):
        a, k = self.a, Sym("k")
        stmt = self.b.forall(
            k + 1, 63, a[S(k + 1, 63), I], a[S(k + 1, 63), I] - a[S(k + 1, 63), k] * a[k, I]
        )
        values = []
        inner = hpf_eval.eval_expr

        def spy(*args, **kwargs):
            values.append(inner(*args, **kwargs))
            return values[-1]

        monkeypatch.setattr(hpf_eval, "eval_expr", spy)
        naive = {name: v.copy(order="F") for name, v in self.arrays.items()}
        for kk in range(3):
            eval_parallel_assign(stmt, self.arrays, {}, {"k": kk})
            eval_oracle.eval_parallel_assign(stmt, naive, {}, {"k": kk})
        assert all(same_bytes(self.arrays[n], naive[n]) for n in naive)
        assert all(v.flags.f_contiguous and not v.flags.c_contiguous for v in values)

    def test_broadcasting_reduce_keeps_its_bits(self):
        a, w = self.a, self.w
        stmt = self.b.reduce("s", 0, 63, a[S(0, 63), 5] * w[7, I])
        product = self.arrays["a"][:, 5:6] * self.arrays["w"][7:8, :]
        # This data sums differently in the two layouts, so the test can tell.
        assert float(np.sum(product)) != float(np.sum(np.asfortranarray(product)))
        scalars, naive = {}, {}
        got = eval_reduce(stmt, self.arrays, scalars, {})
        want = eval_oracle.eval_reduce(stmt, self.arrays, naive, {})
        assert got == want == float(np.sum(product))
