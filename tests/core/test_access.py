"""Access-set analysis tests — the heart of the paper's Section 4.1."""

import pytest

from repro.core.access import RefPattern, Transfer, analyze_loop
from repro.core.sections import Section, StridedInterval
from repro.core.symbolic import Sym
from repro.hpf.dsl import I, ProgramBuilder, S


def stencil_program(n=16, procs=4, dist="block"):
    """out[j] = (a[j-1] + a[j+1]) / 2 over j = 1..n-2."""
    b = ProgramBuilder("stencil")
    a = b.array("a", (n,), dist=dist)
    out = b.array("out", (n,), dist=dist)
    stmt = b.forall(1, n - 2, out[I], (a[I - 1] + a[I + 1]) * 0.5)
    return stmt, b.build(), procs


class TestStencilAnalysis:
    def test_writes_are_owned(self):
        stmt, prog, procs = stencil_program()
        inst = analyze_loop(stmt, prog, procs).instantiate({})
        for p in range(procs):
            assert inst.non_owner_writes[p] == ()
            for _, sec in inst.writes[p]:
                owned = StridedInterval(p * 4, p * 4 + 3)
                assert set(sec.last) <= set(owned)

    def test_non_owner_reads_are_halo_columns(self):
        stmt, prog, procs = stencil_program()
        inst = analyze_loop(stmt, prog, procs).instantiate({})
        # proc 1 owns 4..7; executes 4..7; reads a[3..6] and a[5..8].
        nor = inst.non_owner_reads[1]
        cols = sorted(c for _, sec in nor for c in sec.last)
        assert cols == [3, 8]

    def test_boundary_procs_have_one_halo(self):
        stmt, prog, procs = stencil_program()
        inst = analyze_loop(stmt, prog, procs).instantiate({})
        cols0 = [c for _, sec in inst.non_owner_reads[0] for c in sec.last]
        assert cols0 == [4]  # proc 0 reads right halo only (loop starts at 1)
        cols3 = [c for _, sec in inst.non_owner_reads[3] for c in sec.last]
        assert cols3 == [11]

    def test_transfers_pair_neighbours(self):
        stmt, prog, procs = stencil_program()
        inst = analyze_loop(stmt, prog, procs).instantiate({})
        got = {(t.src, t.dst, tuple(t.section.last)) for t in inst.transfers}
        expect = {
            (1, 0, (4,)),
            (0, 1, (3,)),
            (2, 1, (8,)),
            (1, 2, (7,)),
            (3, 2, (12,)),
            (2, 3, (11,)),
        }
        assert got == expect
        assert all(t.kind == "read" for t in inst.transfers)

    def test_total_reads_cover_rhs_exactly(self):
        stmt, prog, procs = stencil_program()
        inst = analyze_loop(stmt, prog, procs).instantiate({})
        cols = sorted(
            {c for p in range(procs) for _, sec in inst.reads[p] for c in sec.last}
        )
        assert cols == list(range(0, 16))  # a[0..14-1+1+1] = 0..15... j±1 over 1..14

    def test_instantiation_cached(self):
        stmt, prog, procs = stencil_program()
        acc = analyze_loop(stmt, prog, procs)
        assert acc.instantiate({}) is acc.instantiate({})


class TestCyclicAnalysis:
    def test_cyclic_non_owner_reads_everywhere(self):
        # With CYCLIC, every j±1 neighbour belongs to another proc.
        stmt, prog, procs = stencil_program(dist="cyclic")
        inst = analyze_loop(stmt, prog, procs).instantiate({})
        # proc 1 owns 1,5,9,13; executes those; reads j-1 and j+1 — all remote.
        nor_cols = sorted(c for _, sec in inst.non_owner_reads[1] for c in sec.last)
        assert nor_cols == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_cyclic_transfers_strided_sections(self):
        stmt, prog, procs = stencil_program(dist="cyclic")
        inst = analyze_loop(stmt, prog, procs).instantiate({})
        from_0_to_1 = [t for t in inst.transfers if (t.src, t.dst) == (0, 1)]
        cols = sorted(c for t in from_0_to_1 for c in t.section.last)
        assert cols == [0, 4, 8, 12]


class TestBroadcastAnalysis:
    def test_slice_read_reads_whole_array(self):
        # q[j] = sum-like over full x: every proc reads all of x.
        b = ProgramBuilder("mv")
        x = b.array("x", (16,))
        q = b.array("q", (16,))
        stmt = b.forall(0, 15, q[I], x[S(0, 15)] * 1.0)
        prog = b.build()
        inst = analyze_loop(stmt, prog, 4).instantiate({})
        for p in range(4):
            nor_cols = sorted(c for _, sec in inst.non_owner_reads[p] for c in sec.last)
            owned = set(range(p * 4, p * 4 + 4))
            assert set(nor_cols) == set(range(16)) - owned

    def test_point_read_broadcast_from_owner(self):
        # Pivot-column broadcast (LU): everyone reads column k.
        b = ProgramBuilder("lu_bcast")
        a = b.array("a", (16, 16))
        k = Sym("k")
        stmt = b.forall(k + 1, 15, a[S(0, 15), I], a[S(0, 15), I] - a[S(0, 15), k])
        prog = b.build()
        inst = analyze_loop(stmt, prog, 4).instantiate({"k": 2})
        # Column 2 is owned by proc 0; procs 1..3 each need it.
        bcast = [t for t in inst.transfers if tuple(t.section.last) == (2,)]
        assert {(t.src, t.dst) for t in bcast} == {(0, 1), (0, 2), (0, 3)}

    def test_symbolic_reinstantiation_changes_sets(self):
        b = ProgramBuilder("lu_bcast")
        a = b.array("a", (16, 16))
        k = Sym("k")
        stmt = b.forall(k + 1, 15, a[S(0, 15), I], a[S(0, 15), I] - a[S(0, 15), k])
        prog = b.build()
        acc = analyze_loop(stmt, prog, 4)
        i2 = acc.instantiate({"k": 2})
        i13 = acc.instantiate({"k": 13})
        assert len(i2.transfers) == 3
        # k=13: only proc 3 has iterations (14, 15), owner of col 13 is 3: no transfer.
        assert len(i13.transfers) == 0
        assert list(i13.iterations[3]) == [14, 15]


class TestNonOwnerWrites:
    def test_on_home_produces_write_transfers(self):
        b = ProgramBuilder("now")
        a = b.array("a", (16,))
        w = b.array("w", (16,))
        # Iterations follow a's owner, but writes land in w[j+1]:
        # proc 0 executes j=1..3 writing w[2..4]; w[4] belongs to proc 1.
        stmt = b.forall(1, 14, w[I + 1], a[I], on_home=a[I])
        prog = b.build()
        inst = analyze_loop(stmt, prog, 4).instantiate({})
        assert inst.non_owner_writes[0] != ()
        wt = [t for t in inst.transfers if t.kind == "write"]
        assert {(t.src, t.dst, tuple(t.section.last)) for t in wt} == {
            (1, 0, (4,)),
            (2, 1, (8,)),
            (3, 2, (12,)),
        }


class TestReduceAnalysis:
    def test_reduce_reads_owned_only(self):
        b = ProgramBuilder("r")
        a = b.array("a", (16,))
        stmt = b.reduce("s", 0, 15, a[I] * a[I])
        prog = b.build()
        inst = analyze_loop(stmt, prog, 4).instantiate({})
        for p in range(4):
            assert inst.non_owner_reads[p] == ()
            assert inst.writes[p] == ()

    def test_reduce_without_distributed_ref_rejected(self):
        b = ProgramBuilder("r")
        a = b.array("a", (16,), dist="replicated")
        stmt = b.reduce("s", 0, 15, a[I])
        prog = b.build()
        with pytest.raises(ValueError, match="no distributed"):
            analyze_loop(stmt, prog, 4)


class TestSingleOwnerAnalysis:
    def test_only_owner_iterates(self):
        b = ProgramBuilder("so")
        a = b.array("a", (16, 16))
        stmt = b.assign_at(a[S(0, 15), 6], a[S(0, 15), 6] * 2.0)
        prog = b.build()
        inst = analyze_loop(stmt, prog, 4).instantiate({})
        assert [it.is_empty for it in inst.iterations] == [True, False, True, True]
        assert inst.transfers == ()

    def test_single_owner_remote_read(self):
        b = ProgramBuilder("so")
        a = b.array("a", (16, 16))
        # Owner of col 6 (proc 1) reads col 0 (proc 0's).
        stmt = b.assign_at(a[S(0, 15), 6], a[S(0, 15), 0] * 2.0)
        prog = b.build()
        inst = analyze_loop(stmt, prog, 4).instantiate({})
        assert {(t.src, t.dst, tuple(t.section.last)) for t in inst.transfers} == {
            (0, 1, (0,))
        }


class TestTransferValidation:
    def test_self_transfer_rejected(self):
        with pytest.raises(ValueError):
            Transfer("a", Section((), StridedInterval(0, 1)), 1, 1, "read")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Transfer("a", Section((), StridedInterval(0, 1)), 0, 1, "mixed")
