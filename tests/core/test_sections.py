"""Unit + property tests for the regular-section-descriptor algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access import RefPattern, analyze_loop
from repro.core.sections import (
    Section,
    StridedInterval,
    coalesce_points,
)
from repro.core.symbolic import Lin, Sym, as_lin
from repro.hpf.dsl import I, ProgramBuilder, S


# --------------------------------------------------------------------- #
# StridedInterval basics
# --------------------------------------------------------------------- #
class TestStridedIntervalBasics:
    def test_contiguous_members(self):
        si = StridedInterval(3, 7)
        assert list(si) == [3, 4, 5, 6, 7]
        assert len(si) == 5

    def test_strided_members(self):
        si = StridedInterval(1, 10, 3)
        assert list(si) == [1, 4, 7, 10]

    def test_hi_snaps_to_last_member(self):
        si = StridedInterval(0, 11, 4)
        assert si.hi == 8
        assert list(si) == [0, 4, 8]

    def test_empty_normalizes(self):
        si = StridedInterval(5, 3)
        assert si.is_empty and len(si) == 0 and list(si) == []

    def test_singleton_step_normalized(self):
        si = StridedInterval(4, 4, 7)
        assert si.step == 1 and list(si) == [4]

    def test_contains(self):
        si = StridedInterval(2, 14, 4)
        assert 6 in si and 7 not in si and 18 not in si

    def test_point_and_from_range(self):
        assert list(StridedInterval.point(9)) == [9]
        assert list(StridedInterval.from_range(range(2, 11, 3))) == [2, 5, 8]
        assert StridedInterval.from_range(range(0)).is_empty

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            StridedInterval(0, 10, 0)
        with pytest.raises(ValueError):
            StridedInterval.from_range(range(10, 0, -1))

    def test_shift_scale_clip(self):
        # clipping to [lo, hi] is intersecting with StridedInterval(lo, hi)
        si = StridedInterval(0, 9, 3)
        assert list(si.shift(2)) == [2, 5, 8, 11]
        assert list(si.intersect(StridedInterval(2, 7))) == [3, 6]
        assert si.intersect(StridedInterval(10, 20)).is_empty


# --------------------------------------------------------------------- #
# intersection / difference, property-checked against set semantics
# --------------------------------------------------------------------- #
intervals = st.builds(
    StridedInterval,
    lo=st.integers(-30, 30),
    hi=st.integers(-30, 60),
    step=st.integers(1, 7),
)


class TestIntervalAlgebra:
    def test_intersect_contiguous(self):
        a = StridedInterval(0, 10)
        b = StridedInterval(5, 20)
        assert list(a.intersect(b)) == [5, 6, 7, 8, 9, 10]

    def test_intersect_disjoint(self):
        assert StridedInterval(0, 4).intersect(StridedInterval(5, 9)).is_empty

    def test_intersect_strides_crt(self):
        # {0,3,6,9,12} ∩ {0,4,8,12} = {0, 12}
        a = StridedInterval(0, 12, 3)
        b = StridedInterval(0, 12, 4)
        assert list(a.intersect(b)) == [0, 12]

    def test_intersect_incompatible_congruence(self):
        # evens vs odds
        a = StridedInterval(0, 20, 2)
        b = StridedInterval(1, 21, 2)
        assert a.intersect(b).is_empty

    def test_difference_middle_cut(self):
        a = StridedInterval(0, 9)
        pieces = a.difference(StridedInterval(3, 5))
        assert [list(p) for p in pieces] == [[0, 1, 2], [6, 7, 8, 9]]

    def test_difference_no_overlap(self):
        a = StridedInterval(0, 5)
        assert a.difference(StridedInterval(10, 20)) == [a]

    def test_difference_total(self):
        a = StridedInterval(0, 5)
        assert a.difference(StridedInterval(0, 5)) == []

    def test_difference_strided_congruent(self):
        a = StridedInterval(0, 20, 4)   # 0 4 8 12 16 20
        b = StridedInterval(8, 12, 4)
        pieces = a.difference(b)
        assert [list(p) for p in pieces] == [[0, 4], [16, 20]]

    def test_difference_mixed_strides(self):
        a = StridedInterval(0, 10)       # 0..10
        b = StridedInterval(0, 10, 2)    # evens
        got = sorted(v for p in a.difference(b) for v in p)
        assert got == [1, 3, 5, 7, 9]

    @given(a=intervals, b=intervals)
    @settings(max_examples=300)
    def test_intersect_matches_set_semantics(self, a, b):
        assert set(a.intersect(b)) == set(a) & set(b)

    @given(a=intervals, b=intervals)
    @settings(max_examples=300)
    def test_difference_matches_set_semantics(self, a, b):
        got = [v for p in a.difference(b) for v in p]
        assert sorted(got) == sorted(set(a) - set(b))
        assert len(got) == len(set(got))  # no duplicates across pieces

    @given(a=intervals, lo=st.integers(-40, 40), hi=st.integers(-40, 40))
    @settings(max_examples=200)
    def test_clip_matches_set_semantics(self, a, lo, hi):
        assert set(a.intersect(StridedInterval(lo, hi))) == {v for v in a if lo <= v <= hi}

    def test_clip_never_returns_member_below_bound(self):
        # Float ceil((lo - self.lo) / step) rounds down past 2**53.
        got = StridedInterval(0, 2**62, 8).intersect(StridedInterval(9007199255514265, 2**62))
        assert got.lo == 9007199255514272

    @given(
        start=st.integers(0, 2**20),
        step=st.integers(1, 64),
        lo=st.integers(2**53, 2**62),
        width=st.integers(0, 300),
    )
    @settings(max_examples=200)
    def test_clip_matches_set_semantics_past_2_53(self, start, step, lo, width):
        a = StridedInterval(start, 2**63, step)
        hi = lo + width
        got = a.intersect(StridedInterval(lo, hi))
        assert list(got) == [v for v in range(lo, hi + 1) if v in a]


class TestCoalescePoints:
    def test_empty(self):
        assert coalesce_points([]) == []

    def test_single_run(self):
        assert coalesce_points([1, 2, 3]) == [StridedInterval(1, 3)]

    def test_strided_run(self):
        assert coalesce_points([0, 5, 10]) == [StridedInterval(0, 10, 5)]

    def test_break_in_stride(self):
        got = coalesce_points([0, 1, 2, 10])
        assert [list(p) for p in got] == [[0, 1, 2], [10]]

    @given(st.lists(st.integers(0, 60), unique=True, min_size=0, max_size=25).map(sorted))
    @settings(max_examples=200)
    def test_roundtrip(self, points):
        got = [v for p in coalesce_points(points) for v in p]
        assert got == points


# --------------------------------------------------------------------- #
# Section
# --------------------------------------------------------------------- #
class TestSection:
    def test_count_and_rank(self):
        s = Section(((0, 9),), StridedInterval(0, 4))
        assert s.rank == 2 and s.count() == 50

    def test_empty_inner_dim_empties_section(self):
        s = Section(((5, 4),), StridedInterval(0, 4))
        assert s.is_empty and s.count() == 0

    def test_intersect(self):
        # where the inner dims agree, intersecting is intersect_last
        a = Section(((0, 9),), StridedInterval(0, 9))
        got = a.intersect_last(StridedInterval(5, 20))
        assert got.inner == ((0, 9),)
        assert list(got.last) == [5, 6, 7, 8, 9]

    def test_difference_last_keeps_inner(self):
        s = Section(((1, 8),), StridedInterval(0, 9))
        pieces = s.difference_last(StridedInterval(4, 6))
        assert all(p.inner == ((1, 8),) for p in pieces)
        cols = sorted(v for p in pieces for v in p.last)
        assert cols == [0, 1, 2, 3, 7, 8, 9]



class TestSymSection:
    """Symbolic sections: a reference pattern's affine bounds instantiate
    to a concrete :class:`Section` once the bindings are known."""

    def test_instantiate(self):
        N, k = Sym("N"), Sym("k")
        pat = RefPattern("x", ((k + 1, N - 1),), "slice", k + 1, N - 1)
        got = pat.section(StridedInterval(0, 0), {"N": 10, "k": 2})
        assert got.inner == ((3, 9),)
        assert list(got.last) == [3, 4, 5, 6, 7, 8, 9]

    def test_instantiate_empty_when_bounds_cross(self):
        pat = RefPattern("x", (), "slice", as_lin(Sym("N")), Lin(5))
        assert pat.section(StridedInterval(0, 0), {"N": 9}).is_empty

    def test_symbols(self):
        # a loop's sections depend on its symbols only: other bindings
        # reuse the instantiated loop, its own rebuild it
        b = ProgramBuilder("p")
        a = b.array("a", (16, 16))
        k = Sym("k")
        stmt = b.forall(k + 1, 14, a[S(0, 15), I], a[S(0, 15), I - 1])
        loop = analyze_loop(stmt, b.build(), 4)
        first = loop.instantiate({"k": 2, "t": 0})
        assert loop.instantiate({"k": 2, "t": 7}) is first
        assert loop.instantiate({"k": 3, "t": 0}) is not first

    def test_strided_instantiation(self):
        pat = RefPattern("x", (), "shift", as_lin(Sym("k")))
        got = pat.section(StridedInterval(0, 11, 4), {"k": 1})
        assert list(got.last) == [1, 5, 9]
