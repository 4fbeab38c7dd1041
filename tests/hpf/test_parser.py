"""Tests for the textual mini-HPF parser."""

import numpy as np
import pytest

from repro.core.symbolic import Sym
from repro.hpf.ast import (
    At,
    Bin,
    LoopIdx,
    ParallelAssign,
    Reduce,
    ScalarAssign,
    SeqLoop,
    Slice,
    Un,
)
from repro.hpf.eval import EvalError
from repro.hpf.parser import ParseError, parse_program
from repro.runtime import run_shmem, run_uniproc
from repro.tempest.config import ClusterConfig

JACOBI_SRC = """
! 2-D Jacobi relaxation, columns BLOCK-distributed.
PROGRAM jacobi
REAL a(64, 64) DISTRIBUTE (*, BLOCK)
REAL new(64, 64) DISTRIBUTE (*, BLOCK)
FORALL j = 0, 63 : a(0:63, j) = 1.0
DO t = 0, 2
  FORALL j = 1, 62 : new(1:62, j) = (a(0:61, j) + a(2:63, j) + a(1:62, j-1) + a(1:62, j+1)) * 0.25
  FORALL j = 1, 62 : a(1:62, j) = new(1:62, j)
END DO
REDUCE total = SUM(j = 0, 63 : a(0:63, j) * a(0:63, j))
LET half = total / 2.0
END
"""


class TestParsing:
    def test_jacobi_structure(self):
        prog = parse_program(JACOBI_SRC)
        assert prog.name == "jacobi"
        assert set(prog.arrays) == {"a", "new"}
        assert prog.arrays["a"].dist == "block"
        kinds = [type(s).__name__ for s in prog.body]
        assert kinds == ["ParallelAssign", "SeqLoop", "Reduce", "ScalarAssign"]
        seq = prog.body[1]
        assert isinstance(seq, SeqLoop) and len(seq.body) == 2

    def test_subscript_kinds(self):
        prog = parse_program(JACOBI_SRC)
        sweep = prog.body[1].body[0]
        assert isinstance(sweep.lhs.subs[0], Slice)
        assert isinstance(sweep.lhs.subs[1], LoopIdx)
        refs = list(sweep.rhs.refs())
        offsets = sorted(
            r.subs[1].offset.const for r in refs if isinstance(r.subs[1], LoopIdx)
        )
        assert offsets == [-1, 0, 0, 1]

    def test_case_insensitive_keywords(self):
        prog = parse_program(
            "program p\nreal a(8)\nforall j = 0, 7 : a(j) = 1.0\nend"
        )
        assert prog.name == "p"
        assert isinstance(prog.body[0], ParallelAssign)

    def test_cyclic_and_replicated_distributions(self):
        prog = parse_program(
            "PROGRAM p\n"
            "REAL a(8, 16) DISTRIBUTE (*, CYCLIC)\n"
            "REAL c(8, 16) DISTRIBUTE (*, *)\n"
            "FORALL j = 0, 15 : a(0:7, j) = 1.0\n"
            "END"
        )
        assert prog.arrays["a"].dist == "cyclic"
        assert prog.arrays["c"].dist == "replicated"

    def test_seq_var_in_bounds_and_subscripts(self):
        prog = parse_program(
            "PROGRAM lu\n"
            "REAL a(16, 16) DISTRIBUTE (*, CYCLIC)\n"
            "DO k = 0, 14\n"
            "  FORALL j = k+1, 15 : a(0:15, j) = a(0:15, j) - a(0:15, k) * 0.5\n"
            "END DO\n"
            "END"
        )
        loop = prog.body[0].body[0]
        assert loop.loop.lo.eval({"k": 3}) == 4
        point_refs = [
            r for r in loop.rhs.refs() if isinstance(r.subs[1], At)
        ]
        assert point_refs and point_refs[0].subs[1].index == Sym("k")

    def test_on_home_directive(self):
        prog = parse_program(
            "PROGRAM p\n"
            "REAL a(16)\nREAL w(16)\n"
            "FORALL j = 1, 14 ON HOME a(j) : w(j+1) = a(j)\n"
            "END"
        )
        stmt = prog.body[0]
        assert stmt.on_home is not None and stmt.on_home.array == "a"

    def test_assign_single_owner(self):
        prog = parse_program(
            "PROGRAM p\nREAL a(16, 8)\nASSIGN a(0:15, 3) = a(0:15, 0) * 2.0\nEND"
        )
        stmt = prog.body[0]
        assert stmt.loop is None and isinstance(stmt.lhs.last, At)

    def test_unary_and_functions(self):
        prog = parse_program(
            "PROGRAM p\nREAL a(8)\nFORALL j = 0, 7 : a(j) = SQRT(a(j)) + ABS(-a(j))\nEND"
        )
        rhs = prog.body[0].rhs
        assert isinstance(rhs, Bin)
        assert isinstance(rhs.lhs, Un) and rhs.lhs.op == "sqrt"

    def test_scalar_declarations_and_let(self):
        prog = parse_program(
            "PROGRAM p\nSCALAR alpha = 2.5\nREAL a(8)\n"
            "FORALL j = 0, 7 : a(j) = alpha\n"
            "LET beta = alpha * 2.0\nEND"
        )
        assert prog.scalars["alpha"] == 2.5
        assert isinstance(prog.body[1], ScalarAssign)

    def test_reduce_ops(self):
        prog = parse_program(
            "PROGRAM p\nREAL a(8)\nREDUCE m = MAX(j = 0, 7 : a(j))\nEND"
        )
        stmt = prog.body[0]
        assert isinstance(stmt, Reduce) and stmt.op == "max"

    def test_comments_and_blank_lines(self):
        prog = parse_program(
            "\n! header\nPROGRAM p  ! trailing\n\nREAL a(8)\n"
            "FORALL j = 0, 7 : a(j) = 1.0  ! body comment\nEND\n"
        )
        assert len(prog.body) == 1


class TestParseErrors:
    @pytest.mark.parametrize(
        "src,match",
        [
            ("", "empty program"),
            ("REAL a(8)\nEND", "PROGRAM"),
            ("PROGRAM p\nREAL a(8)\n", "missing 'END'"),
            ("PROGRAM p\nWHAT a(8)\nEND", "unrecognized"),
            ("PROGRAM p\nREAL a(x)\nEND", "integer literals"),
            ("PROGRAM p\nREAL a(8)\nREAL a(8)\nEND", "already declared"),
            ("PROGRAM p\nREAL a(8,8) DISTRIBUTE (BLOCK, *)\nEND", "last dimension"),
            ("PROGRAM p\nREAL a(8) DISTRIBUTE (DIAG)\nEND", "unknown distribution"),
            ("PROGRAM p\nREAL a(0)\nEND", "bad shape"),
            ("PROGRAM p\nREAL a(8)\nFORALL j = 0, 7 : a(j) = b(j)\nEND", "unknown name"),
            ("PROGRAM p\nREAL a(8,8)\nFORALL j = 0, 7 : a(j) = 1.0\nEND", "rank"),
            ("PROGRAM p\nREAL a(8)\nFORALL j = 0, 7 : a(j) + 1.0\nEND", "expected '='"),
            ("PROGRAM p\nREAL a(8)\nFORALL j = 0, 7 : a(j) = a(j @ 2)\nEND", "tokenize"),
            ("PROGRAM p\nREAL a(8)\nFORALL j = 0, 7 : a(j*j) = 1.0\nEND", "integer scaling"),
            ("PROGRAM p\nREAL a(8)\nDO k = 0, 3\nEND", "missing 'END DO'"),
            ("PROGRAM p\nREAL a(8)\nFORALL j = 0, 7 : a(j:j) = 1.0\nEND", "loop index"),
            ("PROGRAM p\nREAL a(8)\nLET a(0) = 1.0\nEND", "scalar name"),
        ],
    )
    def test_error_cases(self, src, match):
        with pytest.raises(ParseError, match=match):
            parse_program(src)

    def test_error_carries_line_number(self):
        try:
            parse_program("PROGRAM p\nREAL a(8)\nFORALL j = 0, 7 : a(j) = zz\nEND")
        except ParseError as e:
            assert e.line_no == 3
        else:  # pragma: no cover
            pytest.fail("expected ParseError")


class TestOutOfShapeSubscripts:
    """Parses, then fails at evaluation — naming the statement's line."""

    @pytest.mark.parametrize(
        "stmt,message",
        [
            ("FORALL j = 0, 99 : a(0:7, j) = 1.0", "a axis 1: [0, 99] outside [0, 8)"),
            ("FORALL j = 0, 7 : a(0:9, j) = 1.0", "a axis 0: [0, 9] outside [0, 8)"),
            ("FORALL j = 0, 7 : a(0:7, j) = a(1:8, j)", "a axis 0: [1, 8] outside [0, 8)"),
        ],
    )
    def test_error_names_the_statement_line(self, stmt, message):
        src = f"PROGRAM p\nREAL a(8, 8) DISTRIBUTE (*, BLOCK)\n{stmt}\nEND"
        prog = parse_program(src)
        for run in (run_uniproc, run_shmem):
            with pytest.raises(EvalError) as info:
                run(prog, ClusterConfig(n_nodes=2))
            assert str(info.value) == f"forall@3: {message}"

    def test_reduce_error_names_its_line(self):
        src = (
            "PROGRAM p\nREAL a(8, 8) DISTRIBUTE (*, BLOCK)\n\n"
            "REDUCE s = SUM(j = 0, 7 : a(0:8, j))\nEND"
        )
        with pytest.raises(EvalError, match=r"^reduce@4: a axis 0: \[0, 8\]"):
            run_uniproc(parse_program(src), ClusterConfig(n_nodes=2))


class TestParsedProgramsExecute:
    def test_parsed_jacobi_matches_dsl_jacobi(self):
        from repro.apps.jacobi import build

        cfg = ClusterConfig(n_nodes=4)
        parsed = parse_program(JACOBI_SRC)
        uni = run_uniproc(parsed, cfg)
        opt = run_shmem(parsed, cfg, optimize=True)
        opt.assert_same_numerics(uni)
        # Interior values match the DSL-built jacobi (same stencil, same
        # boundary handling modulo the init pattern).
        assert np.isfinite(opt.arrays["a"]).all()
        assert uni.scalars["half"] == pytest.approx(uni.scalars["total"] / 2)

    def test_parsed_triangular_program(self):
        src = (
            "PROGRAM tri\n"
            "REAL a(32, 32) DISTRIBUTE (*, CYCLIC)\n"
            "FORALL j = 0, 31 : a(0:31, j) = 1.0\n"
            "DO k = 0, 30\n"
            "  FORALL j = k+1, 31 : a(0:31, j) = a(0:31, j) - a(0:31, k) * 0.01\n"
            "END DO\n"
            "END"
        )
        cfg = ClusterConfig(n_nodes=4)
        prog = parse_program(src)
        run_shmem(prog, cfg, optimize=True).assert_same_numerics(run_uniproc(prog, cfg))


class TestParsedSubroutines:
    SRC = """
PROGRAM subtest
REAL u(32, 32)
REAL w(32, 32)
SUB sweep(src(32, 32), dst(32, 32))
  FORALL j = 1, 30 : dst(1:30, j) = (src(1:30, j-1) + src(1:30, j+1)) * 0.5
END SUB
FORALL j = 0, 31 : u(0:31, j) = 1.0
DO t = 0, 2
  CALL sweep(u, w)
  CALL sweep(w, u)
END DO
END
"""

    def test_sub_and_call_inline(self):
        prog = parse_program(self.SRC)
        loop = prog.body[1]
        assert isinstance(loop, SeqLoop)
        assert [s.lhs.array for s in loop.body] == ["w", "u"]
        assert loop.body[0].label.startswith("sweep(u,w).")

    def test_parsed_subroutines_execute(self):
        cfg = ClusterConfig(n_nodes=4)
        prog = parse_program(self.SRC)
        run_shmem(prog, cfg, optimize=True).assert_same_numerics(
            run_uniproc(prog, cfg)
        )

    def test_formals_scoped_to_sub(self):
        with pytest.raises(ParseError, match="unknown name"):
            parse_program(
                "PROGRAM p\nREAL u(8)\n"
                "SUB f(x(8))\n  FORALL j = 0, 7 : x(j) = 1.0\nEND SUB\n"
                "FORALL j = 0, 7 : u(j) = x(j)\nEND"
            )

    def test_formal_shadowing_rejected(self):
        with pytest.raises(ParseError, match="shadows"):
            parse_program(
                "PROGRAM p\nREAL u(8)\nSUB f(u(8))\nEND SUB\nEND"
            )

    def test_call_shape_conformance(self):
        with pytest.raises(ParseError, match="conform"):
            parse_program(
                "PROGRAM p\nREAL u(8)\nREAL v(16)\n"
                "SUB f(x(8))\n  FORALL j = 0, 7 : x(j) = 1.0\nEND SUB\n"
                "CALL f(v)\nEND"
            )

    @pytest.mark.parametrize(
        "formal,match",
        [
            ("x(4, 8) DISTRIBUTE (BLOCK, *)", "last dimension"),
            ("x(4, 8) DISTRIBUTE (BLOCK)", "rank mismatch"),
            ("x(8) DISTRIBUTE (DIAG)", "unknown distribution"),
            ("x(n)", "integer literals"),
        ],
    )
    def test_formal_distribution_checked_like_real(self, formal, match):
        with pytest.raises(ParseError, match=match) as exc:
            parse_program(f"PROGRAM p\nSUB f({formal})\nEND SUB\nEND")
        assert exc.value.line_no == 2

    def test_call_error_names_the_call_line(self):
        with pytest.raises(ParseError, match="conform") as exc:
            parse_program(
                "PROGRAM p\nREAL u(8)\nREAL v(16)\n"
                "SUB f(x(8))\n  FORALL j = 0, 7 : x(j) = 1.0\nEND SUB\n"
                "DO t = 0, 1\n  CALL f(u)\n  CALL f(v)\nEND DO\nEND"
            )
        assert exc.value.line_no == 9
        assert str(exc.value).startswith("line 9: ")

    def test_nested_sub_rejected(self):
        with pytest.raises(ParseError, match="nested"):
            parse_program(
                "PROGRAM p\nSUB f(x(8))\nSUB g(y(8))\nEND SUB\nEND SUB\nEND"
            )

    def test_missing_end_sub(self):
        with pytest.raises(ParseError, match="END SUB"):
            parse_program("PROGRAM p\nSUB f(x(8))\nEND")


class TestParsedStridedForall:
    def test_step_parsed(self):
        prog = parse_program(
            "PROGRAM p\nREAL a(8, 16)\n"
            "FORALL j = 1, 14, 2 : a(0:7, j) = 1.0\nEND"
        )
        assert prog.body[0].loop.step == 2

    def test_zero_step_rejected(self):
        with pytest.raises(ParseError, match="positive"):
            parse_program(
                "PROGRAM p\nREAL a(8, 16)\n"
                "FORALL j = 1, 14, 0 : a(0:7, j) = 1.0\nEND"
            )

    def test_step_with_on_home(self):
        prog = parse_program(
            "PROGRAM p\nREAL a(16)\nREAL w(16)\n"
            "FORALL j = 1, 14, 2 ON HOME a(j) : w(j) = a(j)\nEND"
        )
        stmt = prog.body[0]
        assert stmt.loop.step == 2 and stmt.on_home.array == "a"

    def test_default_step_is_one(self):
        prog = parse_program(
            "PROGRAM p\nREAL a(16)\nFORALL j = 0, 15 : a(j) = 1.0\nEND"
        )
        assert prog.body[0].loop.step == 1
