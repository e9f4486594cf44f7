"""Exact PL homeomorphisms: composition oracle, supports, the tower."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from displacement.core import FgSubgroup, conj, subgroups_commute
from displacement.plmaps import (
    IntervalSet,
    PLContext,
    PLHomeo,
    affine_copy,
    displaces,
    in_standard_f_copy,
    pl_compose,
    pl_support,
    thompson_generators,
    tower_gamma,
    unique_fixed_point_element,
)

F = Fraction
X0, X1 = thompson_generators()


def random_word(rng, gens, max_len):
    pool = list(gens) + [g.inverse() for g in gens]
    w = PLContext().identity
    for _ in range(rng.randint(1, max_len)):
        w = w * rng.choice(pool)
    return w


def test_canonical_form_merges_collinear():
    f = PLHomeo([(0, 0), (F(1, 2), F(1, 2)), (1, 1), (2, 3), (3, F(7, 2)), (4, 4)])
    # redundant diagonal points up front and a collinear interior point
    g = PLHomeo([(1, 1), (2, 3), (4, 4)])
    assert f == g
    assert len(f.breakpoints) == 3


def test_identity_and_inverse():
    e = PLContext().identity
    assert e.is_identity()
    assert (X0 * X0.inverse()).is_identity()
    assert X0.inverse()(F(1, 4)) == F(1, 2)


def test_invalid_breakpoints():
    with pytest.raises(ValueError):
        PLHomeo([(0, 0), (1, F(1, 2))])  # right end off the diagonal
    with pytest.raises(ValueError):
        PLHomeo([(0, 0), (1, 0), (2, 2)])  # not strictly increasing


def test_compose_pointwise_oracle():
    """f*g evaluated at 100 rational samples equals f(g(x)) exactly."""
    h = X0 * X0
    for i in range(100):
        x = F(i, 100)
        assert h(x) == X0(X0(x))
    slopes = set((X0 * X0).slopes())
    assert F(1, 4) in slopes and F(4) in slopes


@settings(max_examples=50)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_associativity(i, j, k):
    pool = [X0, X1, X0.inverse(), X1.inverse()]
    a, b, c = pool[i], pool[j], pool[k]
    assert (a * b) * c == a * (b * c)


@st.composite
def pl_map_on(draw, lo, hi):
    """A PL map supported in [lo, hi], with up to four interior
    breakpoints on the grid lo + (hi - lo) k/12."""
    n = draw(st.integers(0, 4))
    grid = st.integers(1, 11).map(lambda k: lo + (hi - lo) * F(k, 12))
    coords = st.lists(grid, min_size=n, max_size=n, unique=True).map(sorted)
    return PLHomeo([(lo, lo), *zip(draw(coords), draw(coords)), (hi, hi)])


@st.composite
def pl_pairs(draw):
    """(f, g) whose supports are disjoint, nested, partly overlapping,
    equal, or empty for one of them."""
    ends = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4]))
    p0, p1, p2, p3 = sorted(draw(st.lists(ends, min_size=4, max_size=4, unique=True)))
    relation = draw(st.sampled_from(["disjoint", "nested", "overlap", "equal", "empty"]))
    first, second = {
        "disjoint": ((p0, p1), (p2, p3)),
        "nested": ((p0, p3), (p1, p2)),
        "overlap": ((p0, p2), (p1, p3)),
        "equal": ((p0, p3), (p0, p3)),
        "empty": ((p0, p3), None),
    }[relation]
    maps = [draw(pl_map_on(*first)), draw(pl_map_on(*second)) if second else PLHomeo(())]
    if draw(st.booleans()):
        maps.reverse()
    return maps


@settings(max_examples=300)
@given(pl_pairs())
def test_compose_arbitrary_maps(pair):
    f, g = pair
    h = pl_compose(f, g)
    ginv = g.inverse()
    xs = {x for x, _ in g.breakpoints} | {x for x, _ in f.breakpoints}
    xs |= {ginv(u) for u, _ in f.breakpoints}
    xs = sorted(xs | {F(-13), F(13)})
    xs += [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    for x in xs:
        assert h(x) == f(g(x))
    assert PLHomeo(h.breakpoints) == h
    assert (h * h.inverse()).is_identity()


def test_support_examples():
    assert pl_support(PLContext().identity) == IntervalSet([])
    assert pl_support(X0) == IntervalSet([(0, 1)])
    two_bump = X0 * affine_copy(X0, (0, 1), (2, 3))
    assert pl_support(two_bump) == IntervalSet([(0, 1), (2, 3)])


def test_support_transport():
    rng = random.Random(23)
    for _ in range(30):
        g = random_word(rng, (X0, X1), 5)
        t = random_word(rng, (X0, X1), 5)
        assert pl_support(conj(t, g)) == pl_support(g).image(t)


def test_thompson_generator_data():
    assert X0(F(1, 2)) == F(1, 4)
    assert X0(0) == 0 and X0(1) == 1
    for s in X0.slopes() + X1.slopes():
        assert s.numerator == 1 or s.denominator == 1
        top = max(s.numerator, s.denominator)
        assert top & (top - 1) == 0
    assert X1(F(1, 4)) == F(1, 4)  # identity left of 1/2


def test_affine_copy():
    g = affine_copy(X0, (0, 1), (2, 3))
    assert pl_support(g) == IntervalSet([(2, 3)])
    assert g(F(5, 2)) == 2 + X0(F(1, 2))
    assert affine_copy(g, (2, 3), (0, 1)) == X0
    assert affine_copy(X0, (0, 1), (0, 1)) == X0
    with pytest.raises(ValueError):
        affine_copy(X0, (2, 3), (0, 1))  # support not inside (2,3)


def test_unique_fixed_point_element():
    h = unique_fixed_point_element()
    half = F(1, 2)
    assert h(half) == half
    assert h(F(1, 4)) != F(1, 4)
    assert pl_support(h) == IntervalSet([(0, half), (half, 1)])
    # pushes up on the left half, down on the right half
    assert h(F(1, 4)) > F(1, 4)
    assert h(F(3, 4)) < F(3, 4)
    assert in_standard_f_copy(h)


def test_displaces():
    _, dissipators, intervals = tower_gamma(2)
    t2 = dissipators[0]
    I1 = IntervalSet([intervals[0]])
    assert displaces(t2, I1, 50).ok
    assert not displaces(PLContext().identity, I1, 1).ok
    assert not displaces(X0, I1, 1).ok  # x0 preserves (0, 1)


def test_interval_set_invariants():
    s = IntervalSet([(2, 3), (0, 1)])
    assert s.intervals == ((F(0), F(1)), (F(2), F(3)))
    with pytest.raises(ValueError):
        IntervalSet([(0, 2), (1, 3)])
    with pytest.raises(ValueError):
        IntervalSet([(1, 1)])
    assert s.contains_set(IntervalSet([(F(1, 4), F(1, 2))]))
    assert not s.contains_set(IntervalSet([(F(1, 2), F(3, 2))]))


def test_tower_structure():
    gens, dissipators, intervals = tower_gamma(3)
    assert len(gens) == 4 and len(dissipators) == 2 and len(intervals) == 3
    assert intervals[0] == (0, 1)
    for i in (0, 1):
        t = dissipators[i]
        l, r = intervals[i]
        assert pl_support(t) == IntervalSet([intervals[i + 1]])
        # t(x) > x on its support
        assert t(l) > l and t(r) > r
        assert displaces(t, IntervalSet([(l, r)]), 50).ok
    with pytest.raises(ValueError):
        tower_gamma(6)


def test_tower_conjugates_commute():
    gens, dissipators, _ = tower_gamma(2)
    gamma1 = FgSubgroup("Gamma_1", gens[:2])
    t2 = dissipators[0]
    power = t2
    for p in range(1, 11):
        assert subgroups_commute(gamma1, gamma1.conjugate(power)).ok
        power = power * t2


def test_in_standard_f_copy():
    assert in_standard_f_copy(X0) and in_standard_f_copy(X1)
    assert in_standard_f_copy(X0 * X1.inverse())
    assert not in_standard_f_copy(PLHomeo([(0, 0), (1, 2), (3, 3)]))
    shifted = affine_copy(X0, (0, 1), (2, 3))
    assert not in_standard_f_copy(shifted)
    thirds = PLHomeo([(0, 0), (F(1, 3), F(2, 3)), (1, 1)])
    assert not in_standard_f_copy(thirds)
    # dyadic breakpoints, but slopes 3 and 1/3
    assert not in_standard_f_copy(PLHomeo([(0, 0), (F(1, 4), F(3, 4)), (1, 1)]))


def test_canonical_stability():
    rng = random.Random(29)
    for _ in range(20):
        g = random_word(rng, (X0, X1), 6)
        assert PLHomeo(g.breakpoints) == g


def test_orbit_density_sample():
    """The orbit of 1/3 under short generator words is 1/16-dense in (0, 1)."""
    pool = [X0, X1, X0.inverse(), X1.inverse()]
    seen = {F(1, 3)}
    frontier = [F(1, 3)]
    for _ in range(12):
        nxt = []
        for x in frontier:
            for g in pool:
                y = g(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    eps = F(1, 16)
    grid = [F(k, 32) for k in range(1, 32)]
    for x in grid:
        assert any(abs(x - y) <= eps for y in seen)
