"""Algebraic property tests: Lin expressions and the section lattice."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sections import Section, StridedInterval
from repro.core.symbolic import Lin, Sym, as_lin

names = st.sampled_from(["N", "k", "p", "t"])
envs = st.fixed_dictionaries(
    {"N": st.integers(-50, 50), "k": st.integers(-50, 50),
     "p": st.integers(-50, 50), "t": st.integers(-50, 50)}
)


@st.composite
def lins(draw):
    e = Lin(draw(st.integers(-20, 20)))
    for _ in range(draw(st.integers(0, 3))):
        coeff = draw(st.integers(-5, 5))
        e = e + coeff * as_lin(Sym(draw(names)))
    return e


class TestLinLaws:
    @given(a=lins(), b=lins(), env=envs)
    @settings(max_examples=200)
    def test_addition_is_pointwise(self, a, b, env):
        assert (a + b).eval(env) == a.eval(env) + b.eval(env)

    @given(a=lins(), b=lins(), env=envs)
    @settings(max_examples=200)
    def test_subtraction_is_pointwise(self, a, b, env):
        assert (a - b).eval(env) == a.eval(env) - b.eval(env)

    @given(a=lins(), k=st.integers(-10, 10), env=envs)
    @settings(max_examples=200)
    def test_scaling_is_pointwise(self, a, k, env):
        assert (a * k).eval(env) == a.eval(env) * k

    @given(a=lins(), b=lins())
    @settings(max_examples=200)
    def test_addition_commutative_structurally(self, a, b):
        assert a + b == b + a
        assert hash(a + b) == hash(b + a)

    @given(a=lins(), b=lins(), c=lins())
    @settings(max_examples=200)
    def test_addition_associative_structurally(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(a=lins())
    @settings(max_examples=100)
    def test_additive_inverse(self, a):
        assert (a - a) == 0
        assert (a + (-a)).is_const

    @given(a=lins(), env=envs)
    @settings(max_examples=100)
    def test_substitute_total_equals_eval(self, a, env):
        assert a.substitute(env).const == a.eval(env)
        assert a.substitute(env).is_const


intervals = st.builds(
    StridedInterval,
    lo=st.integers(-20, 20),
    hi=st.integers(-20, 40),
    step=st.integers(1, 5),
)


class TestIntervalLattice:
    @given(a=intervals, b=intervals)
    @settings(max_examples=200)
    def test_intersection_commutative(self, a, b):
        assert set(a.intersect(b)) == set(b.intersect(a))

    @given(a=intervals, b=intervals, c=intervals)
    @settings(max_examples=200)
    def test_intersection_associative(self, a, b, c):
        lhs = a.intersect(b).intersect(c)
        rhs = a.intersect(b.intersect(c))
        assert set(lhs) == set(rhs)

    @given(a=intervals)
    @settings(max_examples=100)
    def test_intersection_idempotent(self, a):
        assert set(a.intersect(a)) == set(a)

    @given(a=intervals, b=intervals)
    @settings(max_examples=200)
    def test_difference_then_intersect_empty(self, a, b):
        for piece in a.difference(b):
            assert piece.intersect(b).is_empty

    @given(a=intervals, b=intervals)
    @settings(max_examples=200)
    def test_partition_property(self, a, b):
        kept = {v for piece in a.difference(b) for v in piece}
        cut = set(a.intersect(b))
        assert kept | cut == set(a)
        assert kept & cut == set()


sections = st.builds(
    lambda rlo, rhi, last: Section(((rlo, rhi),), last),
    rlo=st.integers(0, 10),
    rhi=st.integers(0, 15),
    last=intervals,
)


class TestSectionLattice:
    # where the inner dims agree, intersecting two sections is intersect_last
    @given(a=sections, b=intervals)
    @settings(max_examples=200)
    def test_intersect_commutative_on_counts(self, a, b):
        twin = Section(a.inner, b)
        assert a.intersect_last(b).count() == twin.intersect_last(a.last).count()

    @given(a=sections, b=intervals)
    @settings(max_examples=200)
    def test_intersection_contained_in_both(self, a, b):
        got = a.intersect_last(b)
        assert got.inner == a.inner
        assert set(got.last) <= set(a.last) & set(b)

    @given(a=sections, b=intervals)
    @settings(max_examples=200)
    def test_difference_last_disjoint_from_cut(self, a, b):
        for piece in a.difference_last(b):
            assert piece.last.intersect(b).is_empty
