"""Owner-computes lowering tests."""

import pytest

from repro.core.access import analyze_loop
from repro.core.sections import StridedInterval
from repro.core.symbolic import Sym
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.hpf.lowering import distribution_of, iteration_spec


def build_stencil(n=16, procs=4, dist="block", offset=0):
    b = ProgramBuilder("p")
    a = b.array("a", (n,), dist=dist)
    out = b.array("out", (n,), dist=dist)
    lhs = out[I + offset] if offset else out[I]
    stmt = b.forall(1, n - 2, lhs, a[I])
    prog = b.build()
    return stmt, prog.arrays["out"], procs


class TestIterationSpec:
    def test_block_partitions_iterations(self):
        stmt, decl, procs = build_stencil()
        spec = iteration_spec(stmt, decl, procs)
        its = [spec.iterations(p, {}) for p in range(procs)]
        # 16 cols over 4 procs = 4 each; loop bounds clip to 1..14.
        assert list(its[0]) == [1, 2, 3]
        assert list(its[1]) == [4, 5, 6, 7]
        assert list(its[3]) == [12, 13, 14]

    def test_iterations_cover_loop_exactly_once(self):
        for dist in ("block", "cyclic"):
            stmt, decl, procs = build_stencil(dist=dist)
            spec = iteration_spec(stmt, decl, procs)
            seen = []
            for p in range(procs):
                seen.extend(spec.iterations(p, {}))
            assert sorted(seen) == list(range(1, 15))

    def test_lhs_offset_shifts_iterations(self):
        # LHS out[j+1]: proc p executes j with owner(j+1) == p.
        stmt, decl, procs = build_stencil(offset=1)
        spec = iteration_spec(stmt, decl, procs)
        assert list(spec.iterations(0, {})) == [1, 2]      # writes 2,3
        assert list(spec.iterations(1, {})) == [3, 4, 5, 6]  # writes 4..7

    def test_cyclic_iterations_strided(self):
        stmt, decl, procs = build_stencil(dist="cyclic")
        spec = iteration_spec(stmt, decl, procs)
        assert list(spec.iterations(2, {})) == [2, 6, 10, 14]

    def test_symbolic_bounds(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16,))
        k = Sym("k")
        stmt = b.forall(k + 1, 14, a[I], 0.0)
        prog = b.build()
        spec = iteration_spec(stmt, prog.arrays["a"], 4)
        assert list(spec.iterations(0, {"k": 2})) == [3]
        assert list(spec.iterations(0, {"k": 9})) == []
        assert list(spec.iterations(3, {"k": 9})) == [12, 13, 14]

    def test_replicated_lhs_everyone_runs_everything(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16,), dist="replicated")
        stmt = b.forall(0, 15, a[I], 1.0)
        prog = b.build()
        spec = iteration_spec(stmt, prog.arrays["a"], 4)
        for p in range(4):
            assert list(spec.iterations(p, {})) == list(range(16))

    def test_on_home_redistributes(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16,))
        w = b.array("w", (16,))
        stmt = b.forall(1, 14, w[I + 1], a[I], on_home=a[I])
        prog = b.build()
        # Iterations follow a's ownership, not w's shifted ownership.
        spec = iteration_spec(stmt, prog.arrays[stmt.home_ref.array], 4)
        assert list(spec.iterations(0, {})) == [1, 2, 3]

    def test_single_owner_rejected(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16, 16))
        stmt = b.assign_at(a[S(0, 15), 3], 0.0)
        prog = b.build()
        with pytest.raises(ValueError, match="single-owner"):
            iteration_spec(stmt, prog.arrays["a"], 4)


class TestOwnerOfAt:
    """A single-owner statement (LHS last subscript ``At``) runs once, on
    the owner of that column."""

    @staticmethod
    def executor(stmt, prog, env):
        iters = analyze_loop(stmt, prog, 4).instantiate(env).iterations
        return [p for p, it in enumerate(iters) if not it.is_empty]

    def test_block_owner(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16, 16))
        stmt = b.assign_at(a[S(0, 15), Sym("k")], 0.0)
        prog = b.build()
        assert self.executor(stmt, prog, {"k": 0}) == [0]
        assert self.executor(stmt, prog, {"k": 15}) == [3]

    def test_cyclic_owner(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16, 16), dist="cyclic")
        stmt = b.assign_at(a[S(0, 15), Sym("k")], 0.0)
        prog = b.build()
        assert self.executor(stmt, prog, {"k": 6}) == [2]

    def test_requires_at_lhs(self):
        # a loop-indexed LHS makes no single-owner statement: owner-computes
        # spreads its iterations over every processor
        b = ProgramBuilder("p")
        a = b.array("a", (16, 16))
        stmt = b.forall(0, 15, a[S(0, 15), I], 0.0)
        assert self.executor(stmt, b.build(), {}) == [0, 1, 2, 3]


def test_distribution_of_mapping():
    assert distribution_of(
        __import__("repro.hpf.ast", fromlist=["ArrayDecl"]).ArrayDecl("a", (8,), "cyclic"), 4
    ).kind.value == "cyclic"
