"""Exact PL homeomorphisms: composition oracle, supports, the tower.

The integer kernels of ``plmaps`` are tested against the Fraction
kernels below, which compute composition, evaluation, supports and
interval sets directly on the breakpoints and endpoints as rationals."""

import functools
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import itemgetter

import pytest
from hypothesis import event, example, given, settings, strategies as st

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


# -- reference kernels on Fraction breakpoints ---------------------------


def ref_merge(pts):
    """Canonical form of a strictly increasing Fraction breakpoint list
    with diagonal ends: collinear points and redundant diagonal anchors
    dropped."""
    keep = []
    slope = None  # of the segment ending at keep[-1]
    for p in pts:
        if keep:
            s = (p[1] - keep[-1][1]) / (p[0] - keep[-1][0])
            if s == slope:
                keep[-1] = p
                continue
            slope = s
        keep.append(p)
    diagonal = [x == y for x, y in keep]
    lo, hi = 0, len(keep)
    while hi - lo >= 2 and diagonal[lo] and diagonal[lo + 1]:
        lo += 1
    while hi - lo >= 2 and diagonal[hi - 1] and diagonal[hi - 2]:
        hi -= 1
    return tuple(keep[lo:hi]) if hi - lo >= 2 else ()


def ref_eval(bps, x):
    """The value at x of the map with Fraction breakpoints bps."""
    x = F(x)
    if not bps or x <= bps[0][0] or x >= bps[-1][0]:
        return x
    i = bisect_right(bps, x, key=itemgetter(0)) - 1
    (x0, y0), (x1, y1) = bps[i], bps[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def ref_compose(fb, gb):
    """Breakpoints of f . g by one merge walk over the images of g's
    breakpoints and f's breakpoints, all in Fractions."""
    m, k = len(gb), len(fb)
    i = j = 0
    pts = []
    while i < m or j < k:
        if i < m and (j == k or gb[i][1] < fb[j][0]):
            x, z = gb[i]
            i += 1
            if 0 < j < k:
                (u0, v0), (u1, v1) = fb[j - 1], fb[j]
                y = v0 + (v1 - v0) * (z - u0) / (u1 - u0)
            else:
                y = z
        elif i == m or fb[j][0] != gb[i][1]:
            z, y = fb[j]
            j += 1
            if 0 < i < m:
                (x0, y0), (x1, y1) = gb[i - 1], gb[i]
                x = x0 + (x1 - x0) * (z - y0) / (y1 - y0)
            else:
                x = z
        else:
            x, y = gb[i][0], fb[j][1]
            i += 1
            j += 1
        assert not pts or (x > pts[-1][0] and y > pts[-1][1])
        pts.append((x, y))
    return ref_merge(pts)


@dataclass(frozen=True)
class RefIntervalSet:
    """A finite union of disjoint open intervals with Fraction endpoints."""

    intervals: tuple

    def __init__(self, intervals):
        ivs = sorted((F(l), F(r)) for l, r in intervals)
        for l, r in ivs:
            if l >= r:
                raise ValueError(f"empty or inverted interval ({l}, {r})")
        for (_, r0), (l1, _) in zip(ivs, ivs[1:]):
            if l1 < r0:
                raise ValueError("intervals overlap")
        object.__setattr__(self, "intervals", tuple(ivs))

    def __bool__(self):
        return bool(self.intervals)

    def intersection(self, other):
        out = []
        for l0, r0 in self.intervals:
            for l1, r1 in other.intervals:
                l, r = max(l0, l1), min(r0, r1)
                if l < r:
                    out.append((l, r))
        return RefIntervalSet(out)

    def is_disjoint_from(self, other):
        return not self.intersection(other)

    def contains_set(self, other):
        return all(
            any(L <= l and r <= R for L, R in self.intervals)
            for l, r in other.intervals
        )

    def image(self, f):
        bps = f.breakpoints
        return RefIntervalSet(
            [(ref_eval(bps, l), ref_eval(bps, r)) for l, r in self.intervals]
        )


def ref_support(bps):
    """The open support of the map with Fraction breakpoints bps."""
    if not bps:
        return RefIntervalSet([])
    refined = []  # (x, g(x) - x)
    for i, (x0, y0) in enumerate(bps):
        refined.append((x0, y0 - x0))
        if i + 1 < len(bps):
            x1, y1 = bps[i + 1]
            d0, d1 = y0 - x0, y1 - x1
            if (d0 > 0 and d1 < 0) or (d0 < 0 and d1 > 0):
                refined.append((x0 + (x1 - x0) * d0 / (d0 - d1), F(0)))
    out = []
    start = None
    for (x0, d0), (x1, d1) in zip(refined, refined[1:]):
        if d0 != 0 or d1 != 0:
            if start is None:
                start = x0
            if d1 == 0:
                out.append((start, x1))
                start = None
        elif start is not None:
            out.append((start, x0))
            start = None
    if start is not None:
        out.append((start, refined[-1][0]))
    return RefIntervalSet(out)


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
    """(f, g) whose supports are disjoint, touching at one point, nested,
    partly overlapping, equal, or empty for one of them."""
    ends = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4]))
    p0, p1, p2, p3 = sorted(draw(st.lists(ends, min_size=4, max_size=4, unique=True)))
    relation = draw(
        st.sampled_from(["disjoint", "touching", "nested", "overlap", "equal", "empty"])
    )
    first, second = {
        "disjoint": ((p0, p1), (p2, p3)),
        "touching": ((p0, p1), (p1, p2)),
        "nested": ((p0, p3), (p1, p2)),
        "overlap": ((p0, p2), (p1, p3)),
        "equal": ((p0, p3), (p0, p3)),
        "empty": ((p0, p3), None),
    }[relation]
    event(relation)
    maps = [draw(pl_map_on(*first)), draw(pl_map_on(*second)) if second else PLHomeo(())]
    if draw(st.booleans()):
        maps.reverse()
    return maps


# maps whose breakpoint hulls are apart or touch at 1, in both orders:
# pl_compose has no shortcut for them, so they take the merge walk
_LEFT = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
APART_PAIRS = [
    [f, g]
    for right in (PLHomeo([(2, 2), (F(5, 2), F(9, 4)), (3, 3)]),
                  PLHomeo([(1, 1), (F(3, 2), F(5, 3)), (2, 2)]))
    for f, g in ((_LEFT, right), (right, _LEFT))
]


def with_apart_pairs(test):
    for pair in APART_PAIRS:
        test = example(pair)(test)
    return test


@settings(max_examples=300)
@given(pl_pairs())
@with_apart_pairs
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


def assert_canonical(h):
    """(pts, den) is reduced, with den > 0, and the public constructor
    gives the same pair from the Fraction breakpoints."""
    assert h.den > 0
    assert gcd(h.den, *chain.from_iterable(h.pts)) == 1
    again = PLHomeo(h.breakpoints)
    assert (again.pts, again.den) == (h.pts, h.den)
    assert hash(again) == hash(h)


def assert_trusted_set(s):
    """A set built on the trusted path equals, and hashes as, the one the
    public constructor builds from its Fraction intervals."""
    assert s.den > 0
    again = IntervalSet(s.intervals)
    assert (again.ends, again.den) == (s.ends, s.den)
    assert again == s and hash(again) == hash(s)


def sample_points(*maps):
    """Every breakpoint abscissa of the maps, two outside points, and the
    midpoints between consecutive ones."""
    xs = sorted({x for h in maps for x, _ in h.breakpoints} | {F(-13), F(13)})
    return xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]


def assert_matches_reference(h):
    """Evaluation, support and inverse of h against the Fraction kernels."""
    bps = h.breakpoints
    for x in sample_points(h):
        assert h(x) == ref_eval(bps, x)
    support = pl_support(h)
    assert support.intervals == ref_support(bps).intervals
    assert_trusted_set(support)
    inv = h.inverse()
    assert inv.breakpoints == tuple((y, x) for x, y in bps)
    assert ref_compose(bps, inv.breakpoints) == ()
    assert_canonical(h)


@settings(max_examples=300)
@given(pl_pairs())
@with_apart_pairs
def test_kernels_match_fraction_reference(pair):
    """Compose, evaluate, support and invert arbitrary maps, with negative
    coordinates and supports in every relative position, against the
    Fraction reference kernels."""
    f, g = pair
    h = pl_compose(f, g)
    assert h.breakpoints == ref_compose(f.breakpoints, g.breakpoints)
    for x in sample_points(f, g):
        assert h(x) == ref_eval(f.breakpoints, ref_eval(g.breakpoints, x))
    for k in (f, g, h):
        assert_matches_reference(k)


@st.composite
def interval_lists(draw):
    """Disjoint open intervals between sorted grid points, some of them
    touching at a shared endpoint."""
    ends = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6]))
    qs = sorted(draw(st.lists(ends, max_size=7, unique=True)))
    gaps = list(zip(qs, qs[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(gaps), max_size=len(gaps)))
    return [iv for iv, k in zip(gaps, keep) if k]


@st.composite
def interval_list_pairs(draw):
    """(a, b) where b is drawn on its own, is a itself, or shrinks some
    intervals of a, so that equality and containment both occur."""
    a = draw(interval_lists())
    relation = draw(st.sampled_from(["independent", "same", "inside"]))
    if relation == "independent":
        return a, draw(interval_lists())
    if relation == "same":
        return a, list(reversed(a))
    keep = draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
    return a, [(l, (l + r) / 2) for (l, r), k in zip(a, keep) if k]


@settings(max_examples=300)
@given(interval_list_pairs(), pl_map_on(F(-6), F(6)))
def test_interval_sets_match_fraction_reference(pair, f):
    """Disjointness, containment, images, == and hash of
    integer interval sets agree with the Fraction reference, and every
    trusted result is the canonical set of its intervals."""
    a, b = pair
    s, t = IntervalSet(a), IntervalSet(b)
    rs, rt = RefIntervalSet(a), RefIntervalSet(b)
    assert s.intervals == rs.intervals and t.intervals == rt.intervals
    assert (s == t) == (rs == rt)
    if s == t:
        assert hash(s) == hash(t)
    assert s.is_disjoint_from(t) == rs.is_disjoint_from(rt)
    assert s.contains_set(t) == rs.contains_set(rt)
    assert t.contains_set(s) == rt.contains_set(rs)
    for got, want in (
        (s.image(f), rs.image(f)),
        (t.image(f.inverse()), rt.image(f.inverse())),
    ):
        assert got.intervals == want.intervals
        assert_trusted_set(got)


@settings(max_examples=300)
@given(interval_list_pairs(), interval_lists())
def test_union_covers_exactly_the_points_of_its_sets(pair, c):
    """A point lies in the union iff it lies in one of the sets, at every
    endpoint of the sets and the union and between consecutive ones; so
    overlapping intervals merge and touching ones stay apart unless a
    third interval covers their shared endpoint."""
    sets = [IntervalSet(ivs) for ivs in (*pair, c)]
    u = IntervalSet.union(sets)
    assert_trusted_set(u)
    ends = sorted({e for s in (*sets, u) for iv in s.intervals for e in iv})

    def inside(s, x):
        return any(l < x < r for l, r in s.intervals)

    for x in ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]:
        assert inside(u, x) == any(inside(s, x) for s in sets)
    assert IntervalSet.union([]) == IntervalSet([])


def test_touching_open_intervals_are_disjoint():
    a, b = IntervalSet([(0, 1)]), IntervalSet([(1, 2)])
    assert a.is_disjoint_from(b) and b.is_disjoint_from(a)
    assert not IntervalSet([(0, 1), (2, 3)]).is_disjoint_from(IntervalSet([(F(1, 2), 2)]))
    assert IntervalSet([(0, 1), (1, 2)]).intervals == ((0, 1), (1, 2))


@functools.cache
def tower5_letters():
    """The depth-5 tower generators, their inverses, and the conjugates
    of both by t^p for each dissipator t and 1 <= p <= 10, as the
    Z-conjugate check of the tower forms them."""
    gens, dissipators, _ = tower_gamma(5)
    pool = gens + [g.inverse() for g in gens]
    letters = list(pool)
    for t in dissipators:
        power = t
        for _ in range(10):
            letters += [conj(power, g) for g in pool]
            power = power * t
    return letters


# deferred, so that a broken kernel fails the tests, not their collection
tower5_letter = st.deferred(lambda: st.sampled_from(tower5_letters()))


@settings(max_examples=60, deadline=None)
@given(st.lists(tower5_letter, min_size=1, max_size=8))
def test_tower_words_match_fraction_reference(word):
    """Products of depth-5 tower letters, built one letter at a time on
    both sides, agree with the Fraction reference at every step."""
    h, ref = PLContext().identity, ()
    for letter in word:
        h = h * letter
        ref = ref_compose(ref, letter.breakpoints)
        assert h.breakpoints == ref
    assert_matches_reference(h)


def test_sampled_depth5_words_reach_large_denominators():
    """Sampled depth-5 tower words have common denominators past 64 bits;
    on those, the integer kernels still agree with the reference."""
    rng = random.Random(1)
    widest = 0
    for _ in range(200):
        h = PLContext().identity
        for _ in range(rng.randint(1, 8)):
            h = h * rng.choice(tower5_letters())
        widest = max(widest, h.den.bit_length())
        assert_matches_reference(h)
    assert widest > 64


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
    # a shift by 2 on [0, 5] moves (0, 1) onto (4, 5) only at the second power
    t = PLHomeo([(-1, -1), (0, 2), (5, 7), (8, 8)])
    two = IntervalSet([(0, 1), (4, 5)])
    assert displaces(t, two, 1).ok
    report = displaces(t, two, 2)
    assert not report.ok and report.counterexample == (t, 2)


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
