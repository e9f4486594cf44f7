"""Exact piecewise-linear homeomorphisms of the real line.

A PLHomeo is stored as its canonical breakpoint list; the map is the
identity outside the first and last breakpoints (so both ends lie on the
diagonal), and all breakpoints and slopes are exact rationals with
positive slopes.  The group operation is composition.

The public constructor ``PLHomeo(...)`` validates and canonicalises its
breakpoints.  Products and inverses of valid maps are valid by
construction, so they take a trusted path that skips that validation:
``pl_compose`` is one merge walk over the two breakpoint lists, and
``PLHomeo.inverse`` reflects the list in the diagonal.

This module also builds the standard generators of Thompson's group F
on (0, 1) and the restricted tower obtained by repeatedly adjoining a
one-bump translation-like element whose powers all displace the previous
support interval.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

from .core import FgSubgroup, PropertyReport

Point = Tuple[Fraction, Fraction]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class PLContext:
    """Compactly supported PL homeomorphisms of the line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "PL(R)"

    @property
    def identity(self) -> "PLHomeo":
        return PLHomeo(())


def _merge(pts: Sequence[Point]) -> Tuple[Point, ...]:
    """The canonical form of a strictly increasing breakpoint list whose
    ends lie on the diagonal: collinear interior points and redundant
    diagonal anchors at either end are dropped."""
    keep: List[Point] = []
    slope = None  # of the segment ending at keep[-1]
    for p in pts:
        if keep:
            s = (p[1] - keep[-1][1]) / (p[0] - keep[-1][0])
            if s == slope:
                # keep has no collinear triple, so at most this one point goes
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


def _canonical(points: Sequence[Point]) -> Tuple[Point, ...]:
    """Validate arbitrary breakpoints and return their canonical form."""
    pts = sorted(set(points))
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"breakpoints not strictly increasing: {pts}")
    if len(pts) == 1 and pts[0][0] != pts[0][1]:
        raise ValueError("a single off-diagonal breakpoint is not a homeomorphism")
    if pts and (pts[0][0] != pts[0][1] or pts[-1][0] != pts[-1][1]):
        raise ValueError("map must be the identity outside its breakpoints")
    return _merge(pts)


class PLHomeo:
    """An orientation-preserving PL homeomorphism of R, identity outside
    a bounded interval."""

    __slots__ = ("breakpoints",)

    def __init__(self, breakpoints: Iterable[Sequence]):
        pts = [(_frac(x), _frac(y)) for x, y in breakpoints]
        self.breakpoints = _canonical(pts)

    @classmethod
    def _trusted(cls, breakpoints: Tuple[Point, ...]) -> "PLHomeo":
        """The map with these breakpoints, which must already be canonical.
        Only closed operations (product, inverse) call this."""
        h = object.__new__(cls)
        h.breakpoints = breakpoints
        return h

    @property
    def context(self) -> PLContext:
        return PLContext()

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        bps = self.breakpoints
        if not bps or x <= bps[0][0] or x >= bps[-1][0]:
            return x
        i = bisect_right(bps, x, key=itemgetter(0)) - 1
        (x0, y0), (x1, y1) = bps[i], bps[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def inverse(self) -> "PLHomeo":
        # reflecting in the diagonal keeps the list canonical
        return PLHomeo._trusted(tuple((y, x) for x, y in self.breakpoints))

    def __mul__(self, other: "PLHomeo") -> "PLHomeo":
        return pl_compose(self, other)

    def is_identity(self) -> bool:
        return not self.breakpoints

    def __eq__(self, other):
        if not isinstance(other, PLHomeo):
            return NotImplemented
        return self.breakpoints == other.breakpoints

    def __hash__(self):
        return hash(self.breakpoints)

    def __repr__(self):
        return "PL" + repr([(str(x), str(y)) for x, y in self.breakpoints])

    def slopes(self) -> Tuple[Fraction, ...]:
        return tuple(
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:])
        )


def pl_compose(f: PLHomeo, g: PLHomeo) -> PLHomeo:
    """Exact composition f . g (apply g first).

    One merge walk over the images y_i of g's breakpoints (x_i, y_i) and
    the breakpoints (u_j, v_j) of f, in increasing order of that middle
    coordinate.  Each y_i yields (x_i, f(y_i)) and each u_j yields
    (g^-1(u_j), v_j), the other map being interpolated inside the segment
    the walk is in, or the identity outside its breakpoints."""
    gb, fb = g.breakpoints, f.breakpoints
    m, k = len(gb), len(fb)
    i = j = 0
    pts: List[Point] = []
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
        if pts and (x <= pts[-1][0] or y <= pts[-1][1]):
            raise AssertionError(f"composition walk not strictly increasing at {(x, y)}")
        pts.append((x, y))
    return PLHomeo._trusted(_merge(pts))


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint open intervals with rational endpoints."""

    intervals: Tuple[Tuple[Fraction, Fraction], ...]

    def __init__(self, intervals: Iterable[Sequence]):
        ivs = sorted((_frac(l), _frac(r)) for l, r in intervals)
        for l, r in ivs:
            if l >= r:
                raise ValueError(f"empty or inverted interval ({l}, {r})")
        for (_, r0), (l1, _) in zip(ivs, ivs[1:]):
            if l1 < r0:
                raise ValueError("intervals overlap")
        object.__setattr__(self, "intervals", tuple(ivs))

    def __bool__(self):
        return bool(self.intervals)

    def __repr__(self):
        return "{" + ", ".join(f"({l}, {r})" for l, r in self.intervals) + "}"

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for l0, r0 in self.intervals:
            for l1, r1 in other.intervals:
                l, r = max(l0, l1), min(r0, r1)
                if l < r:
                    out.append((l, r))
        return IntervalSet(out)

    def is_disjoint_from(self, other: "IntervalSet") -> bool:
        return not self.intersection(other)

    def contains_set(self, other: "IntervalSet") -> bool:
        """Open containment: every interval of other inside one of self."""
        return all(
            any(L <= l and r <= R for L, R in self.intervals)
            for l, r in other.intervals
        )

    def image(self, f: PLHomeo) -> "IntervalSet":
        """Image under an increasing homeomorphism: endpoints map over."""
        return IntervalSet([(f(l), f(r)) for l, r in self.intervals])


def pl_support(g: PLHomeo) -> IntervalSet:
    """The open set {x : g(x) != x} as a finite union of open intervals.

    Isolated interior fixed points split the support: they are not part
    of it, and the flanking intervals stay separate."""
    bps = g.breakpoints
    if not bps:
        return IntervalSet([])
    # refine with interior diagonal crossings, then record d(x) = g(x) - x
    refined: List[Tuple[Fraction, Fraction]] = []  # (x, d)
    for i, (x0, y0) in enumerate(bps):
        refined.append((x0, y0 - x0))
        if i + 1 < len(bps):
            x1, y1 = bps[i + 1]
            d0, d1 = y0 - x0, y1 - x1
            if (d0 > 0 and d1 < 0) or (d0 < 0 and d1 > 0):
                # linear in between; exact crossing point
                xc = x0 + (x1 - x0) * d0 / (d0 - d1)
                refined.append((xc, Fraction(0)))
    out = []
    start = None
    for i in range(len(refined) - 1):
        (x0, d0), (x1, d1) = refined[i], refined[i + 1]
        nonzero = not (d0 == 0 and d1 == 0)
        if nonzero:
            if start is None:
                start = x0
            # close the interval if the right endpoint is a fixed point
            if d1 == 0:
                out.append((start, x1))
                start = None
        else:
            if start is not None:
                out.append((start, x0))
                start = None
    if start is not None:
        out.append((start, refined[-1][0]))
    return IntervalSet(out)


def thompson_generators() -> Tuple[PLHomeo, PLHomeo]:
    """The standard pair generating the copy of Thompson's group F
    supported on (0, 1): dyadic breakpoints, power-of-two slopes."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    x0 = PLHomeo([(0, 0), (half, quarter), (Fraction(3, 4), half), (1, 1)])
    x1 = PLHomeo(
        [
            (half, half),
            (Fraction(3, 4), Fraction(5, 8)),
            (Fraction(7, 8), Fraction(3, 4)),
            (1, 1),
        ]
    )
    return x0, x1


def affine_copy(g: PLHomeo, I: Sequence, J: Sequence) -> PLHomeo:
    """Conjugate of g by the increasing affine bijection I -> J.

    Requires the support of g to lie inside the open interval I; the
    result is supported inside J."""
    il, ir = _frac(I[0]), _frac(I[1])
    jl, jr = _frac(J[0]), _frac(J[1])
    if il >= ir or jl >= jr:
        raise ValueError("intervals must be nonempty")
    if not IntervalSet([(il, ir)]).contains_set(pl_support(g)):
        raise ValueError("support of g is not contained in I")
    s = (jr - jl) / (ir - il)

    def phi(x: Fraction) -> Fraction:
        return jl + (x - il) * s

    pts = [(phi(x), phi(y)) for x, y in g.breakpoints]
    pts += [(jl, jl), (jr, jr)]
    return PLHomeo(pts)


def unique_fixed_point_element() -> PLHomeo:
    """An element of the F-copy on (0, 1) whose only interior fixed point
    is 1/2: it pushes points up on (0, 1/2) and down on (1/2, 1)."""
    x0, _ = thompson_generators()
    half = Fraction(1, 2)
    up = affine_copy(x0.inverse(), (0, 1), (0, half))
    down = affine_copy(x0, (0, 1), (half, 1))
    return up * down


def displaces(t: PLHomeo, I: IntervalSet, p_max: int) -> PropertyReport:
    """Pass iff t^p(I) and I are disjoint for all 1 <= p <= p_max,
    computed exactly by iterating endpoints through t."""
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    desc = f"t^p(I) disjoint from I for 1 <= p <= {p_max}"
    current = I
    for p in range(1, p_max + 1):
        current = current.image(t)
        if not current.is_disjoint_from(I):
            return PropertyReport.failing(
                desc, f"t^{p}(I) meets I", counterexample=(t, p)
            )
    return PropertyReport.passing(desc, [f"checked powers 1..{p_max}"])


def _dissipator(l: Fraction, r: Fraction) -> PLHomeo:
    """A one-bump element with connected support (l-1, r+3c), c = r-l+1,
    acting as x -> x + c on [l, r+c]; every positive power moves (l, r)
    entirely past r."""
    c = r - l + 1
    return PLHomeo(
        [(l - 1, l - 1), (l, l + c), (r + c, r + 2 * c), (r + 3 * c, r + 3 * c)]
    )


MAX_TOWER_DEPTH = 5


def tower_gamma(depth: int):
    """The restricted PL tower: level 1 is the F-copy on (0, 1); each
    next level adjoins a dissipator-style element whose support swallows
    the previous one.

    Returns (generators, dissipators, intervals): the generator list of
    the top level, the adjoined elements t_2..t_depth, and the support
    intervals I_1..I_depth as (l, r) pairs.
    """
    if depth < 1 or depth > MAX_TOWER_DEPTH:
        raise ValueError(f"depth must be between 1 and {MAX_TOWER_DEPTH}")
    x0, x1 = thompson_generators()
    gens: List[PLHomeo] = [x0, x1]
    dissipators: List[PLHomeo] = []
    intervals: List[Tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(1))]
    for _ in range(depth - 1):
        l, r = intervals[-1]
        t = _dissipator(l, r)
        c = r - l + 1
        dissipators.append(t)
        gens.append(t)
        intervals.append((l - 1, r + 3 * c))
    return gens, dissipators, intervals


def tower_subgroup(depth: int) -> FgSubgroup:
    gens, _, _ = tower_gamma(depth)
    return FgSubgroup(f"Gamma_{depth}", gens)


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def in_standard_f_copy(g: PLHomeo) -> bool:
    """Membership in the standard F-copy on (0, 1): dyadic breakpoints,
    power-of-two slopes, support inside (0, 1).  Sound and complete for
    this particular copy."""
    if g.is_identity():
        return True
    if not IntervalSet([(0, 1)]).contains_set(pl_support(g)):
        return False
    for x, y in g.breakpoints:
        if not (_is_power_of_two(x.denominator) and _is_power_of_two(y.denominator)):
            return False
    # a reduced fraction is 2^k (k in Z) iff both its terms are powers of two
    return all(
        _is_power_of_two(s.numerator) and _is_power_of_two(s.denominator)
        for s in g.slopes()
    )
