"""Tests for subroutines and inlining (the paper's interprocedural gap)."""

import numpy as np
import pytest

from repro.hpf.ast import ParallelAssign, SeqLoop
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.hpf.procedures import CallStmt, SubroutineDef, SubroutineError, inline_calls
from repro.runtime import run_shmem, run_uniproc
from repro.tempest.config import ClusterConfig


def sweep_builder(n=64):
    b = ProgramBuilder("p")
    u = b.array("u", (n, n), init=lambda s: np.ones(s))
    w = b.array("w", (n, n))
    with b.subroutine("sweep", src=(n, n), dst=(n, n)) as (s_, d_):
        b.forall(
            1, n - 2,
            d_[S(1, n - 2), I],
            (s_[S(1, n - 2), I - 1] + s_[S(1, n - 2), I + 1]) * 0.5,
            label="body",
        )
    return b, u, w


class TestInlining:
    def test_call_expands_with_substituted_names(self):
        b, u, w = sweep_builder()
        b.call("sweep", "u", "w")
        prog = b.build()
        stmt = prog.body[0]
        assert isinstance(stmt, ParallelAssign)
        assert stmt.lhs.array == "w"
        assert all(r.array == "u" for r in stmt.rhs.refs())
        assert stmt.label == "sweep(u,w).body"

    def test_calls_inside_seq_loops_expand(self):
        b, u, w = sweep_builder()
        with b.timesteps(3):
            b.call("sweep", "u", "w")
            b.call("sweep", "w", "u")
        prog = b.build()
        loop = prog.body[0]
        assert isinstance(loop, SeqLoop)
        assert [s.lhs.array for s in loop.body] == ["w", "u"]

    def test_handles_accepted_as_actuals(self):
        b, u, w = sweep_builder()
        b.call("sweep", u, w)
        prog = b.build()
        assert prog.body[0].lhs.array == "w"

    def test_nested_subroutine_calls(self):
        n = 32
        b = ProgramBuilder("p")
        u = b.array("u", (n, n))
        w = b.array("w", (n, n))
        with b.subroutine("copy", src=(n, n), dst=(n, n)) as (s_, d_):
            b.forall(0, n - 1, d_[S(0, n - 1), I], s_[S(0, n - 1), I])
        with b.subroutine("double_copy", a=(n, n), bb=(n, n)) as (x, y):
            b.call("copy", "a", "bb")
            b.call("copy", "bb", "a")
        b.call("double_copy", "u", "w")
        prog = b.build()
        assert [s.lhs.array for s in prog.body] == ["w", "u"]

    def test_interprocedural_analysis_just_works(self):
        # The paper's gap: after inlining, PRE sees across call boundaries.
        n = 64
        b = ProgramBuilder("p")
        coeff = b.array("coeff", (n, n))
        x = b.array("x", (n, n))
        b.forall(0, n - 1, coeff[S(0, n - 1), I], 2.0, label="init")
        with b.subroutine("apply", c=(n, n), v=(n, n)) as (c_, v_):
            b.forall(
                1, n - 1,
                v_[S(0, n - 1), I],
                v_[S(0, n - 1), I] + c_[S(0, n - 1), I - 1],
                label="apply",
            )
        with b.timesteps(3):
            b.call("apply", "coeff", "x")
        prog = b.build()
        cfg = ClusterConfig(n_nodes=4)
        pre = run_shmem(prog, cfg, optimize=True, pre=True)
        # coeff's halo, read inside the subroutine, is still available on
        # the later calls — visible because the call was inlined.
        assert pre.extra["blocks_elided"] == 24
        base = run_shmem(prog, cfg, optimize=True)
        np.testing.assert_array_equal(pre.arrays["x"], base.arrays["x"])

    def test_numerics_match_hand_inlined_version(self):
        cfg = ClusterConfig(n_nodes=4)
        b, u, w = sweep_builder()
        with b.timesteps(2):
            b.call("sweep", "u", "w")
            b.call("sweep", "w", "u")
        with_subs = b.build()

        n = 64
        b2 = ProgramBuilder("p")
        u2 = b2.array("u", (n, n), init=lambda s: np.ones(s))
        w2 = b2.array("w", (n, n))
        with b2.timesteps(2):
            b2.forall(1, n - 2, w2[S(1, n - 2), I],
                      (u2[S(1, n - 2), I - 1] + u2[S(1, n - 2), I + 1]) * 0.5)
            b2.forall(1, n - 2, u2[S(1, n - 2), I],
                      (w2[S(1, n - 2), I - 1] + w2[S(1, n - 2), I + 1]) * 0.5)
        by_hand = b2.build()

        r1 = run_shmem(with_subs, cfg, optimize=True)
        r2 = run_uniproc(by_hand, cfg)
        np.testing.assert_allclose(r1.arrays["u"], r2.arrays["u"])
        np.testing.assert_allclose(r1.arrays["w"], r2.arrays["w"])


class TestValidation:
    def test_undefined_subroutine(self):
        b, u, w = sweep_builder()
        b.call("smoothe", "u", "w")  # typo
        with pytest.raises(SubroutineError, match="undefined"):
            b.build()

    def test_arity_mismatch(self):
        b, u, w = sweep_builder()
        b.call("sweep", "u")
        with pytest.raises(SubroutineError, match="expects 2"):
            b.build()

    def test_aliasing_rejected(self):
        b, u, w = sweep_builder()
        b.call("sweep", "u", "u")
        with pytest.raises(SubroutineError, match="aliased"):
            b.build()

    def test_undeclared_actual(self):
        b, u, w = sweep_builder()
        b.call("sweep", "u", "ghost")
        with pytest.raises(SubroutineError, match="not a declared array"):
            b.build()

    def test_shape_conformance_enforced(self):
        b, u, w = sweep_builder(n=64)
        small = b.array("small", (32, 32))
        b.call("sweep", "u", "small")
        with pytest.raises(SubroutineError, match="conform"):
            b.build()

    def test_distribution_conformance_enforced(self):
        n = 64
        b = ProgramBuilder("p")
        u = b.array("u", (n, n))
        c = b.array("c", (n, n), dist="cyclic")
        with b.subroutine("f", a=((n, n), "block")) as (a_,):
            b.forall(0, n - 1, a_[S(0, n - 1), I], 1.0)
        b.call("f", "c")
        with pytest.raises(SubroutineError, match="conform"):
            b.build()

    def test_formal_shadowing_declared_array_rejected(self):
        b = ProgramBuilder("p")
        b.array("u", (8, 8))
        with pytest.raises(SubroutineError, match="shadows"):
            with b.subroutine("f", u=(8, 8)):
                pass

    def test_duplicate_subroutine_rejected(self):
        b, u, w = sweep_builder()
        with pytest.raises(SubroutineError, match="already defined"):
            with b.subroutine("sweep", a=(8, 8)):
                pass

    def test_recursion_detected(self):
        defs = {
            "a": SubroutineDef("a", ("x",), (CallStmt("b", ("x",)),)),
            "b": SubroutineDef("b", ("x",), (CallStmt("a", ("x",)),)),
        }
        with pytest.raises(SubroutineError, match="recursion"):
            inline_calls([CallStmt("a", ("u",))], defs, ["u"])

    def test_duplicate_params_rejected(self):
        with pytest.raises(SubroutineError, match="duplicate"):
            SubroutineDef("f", ("x", "x"), ())
