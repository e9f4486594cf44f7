"""Exact piecewise-linear homeomorphisms of the real line.

A PLHomeo is stored as its canonical breakpoint list; the map is the
identity outside the first and last breakpoints (so both ends lie on the
diagonal), and all breakpoints and slopes are exact rationals with
positive slopes.  The group operation is composition.

The breakpoints are held as integer points ``pts`` over one positive
common denominator ``den``, divided by the gcd of ``den`` and all
coordinates, so that ``(pts, den)`` is canonical and ``==`` and
``hash`` compare it; an ``IntervalSet`` holds its endpoints ``ends`` in
the same way.  Products, evaluation, supports and interval sets compute
on these integers: rationals are compared by cross-multiplying and
interpolated with one division at the end.  ``Fraction`` appears only
at the boundary: the public constructors and ``__call__`` accept it, and
``__call__``, ``breakpoints``, ``slopes``, ``IntervalSet.intervals`` and
``repr`` return it.

The public constructors validate their input, and ``PLHomeo(...)``
canonicalises it with ``_merge``, the one canonicaliser.  Closed
operations on valid values skip that: ``PLHomeo.inverse`` reflects the
list in the diagonal, and ``pl_compose`` returns one map when the other
is the identity, and else is one merge walk followed by ``_merge``.

This module also builds the standard generators of Thompson's group F
on (0, 1) and the restricted tower obtained by repeatedly adjoining a
one-bump translation-like element whose powers all displace the previous
support interval.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

from .core import PropertyReport

Point = Tuple[Fraction, Fraction]
IntPoint = Tuple[int, int]


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


def _merge(pts: Sequence[IntPoint], den: int) -> Tuple[Tuple[IntPoint, ...], int]:
    """The canonical form of a strictly increasing list of integer points
    over the denominator den > 0 whose ends lie on the diagonal:
    collinear interior points and redundant diagonal anchors at either
    end are dropped, and the points and den are divided by their gcd."""
    keep: List[IntPoint] = []
    dx0 = dy0 = 0  # the segment ending at keep[-1]; dx0 = 0 while there is none
    for p in pts:
        if keep:
            dx, dy = p[0] - keep[-1][0], p[1] - keep[-1][1]
            if dx0 and dy * dx0 == dy0 * dx:
                # keep has no collinear triple, so at most this one point goes
                keep[-1] = p
                continue
            dx0, dy0 = dx, dy
        keep.append(p)
    diagonal = [x == y for x, y in keep]
    lo, hi = 0, len(keep)
    while hi - lo >= 2 and diagonal[lo] and diagonal[lo + 1]:
        lo += 1
    while hi - lo >= 2 and diagonal[hi - 1] and diagonal[hi - 2]:
        hi -= 1
    if hi - lo < 2:
        return (), 1
    keep = keep[lo:hi]
    g = den
    for x, y in keep:
        g = gcd(g, x, y)
        if g == 1:
            return tuple(keep), den
    return tuple([(x // g, y // g) for x, y in keep]), den // g


def _canonical(points: Sequence[Point]) -> Tuple[Tuple[IntPoint, ...], int]:
    """Validate arbitrary breakpoints and return their canonical form."""
    pts = sorted(set(points))
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"breakpoints not strictly increasing: {pts}")
    if len(pts) == 1 and pts[0][0] != pts[0][1]:
        raise ValueError("a single off-diagonal breakpoint is not a homeomorphism")
    if pts and (pts[0][0] != pts[0][1] or pts[-1][0] != pts[-1][1]):
        raise ValueError("map must be the identity outside its breakpoints")
    den = lcm(*[c.denominator for c in chain.from_iterable(pts)])
    return _merge(
        [
            (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
            for x, y in pts
        ],
        den,
    )


class PLHomeo:
    """An orientation-preserving PL homeomorphism of R, identity outside
    a bounded interval."""

    __slots__ = ("pts", "den")

    def __init__(self, breakpoints: Iterable[Sequence]):
        pts = [(_frac(x), _frac(y)) for x, y in breakpoints]
        self.pts, self.den = _canonical(pts)

    @classmethod
    def _trusted(cls, pts: Tuple[IntPoint, ...], den: int) -> "PLHomeo":
        """The map with breakpoints pts / den, which must already be
        canonical.  Only closed operations (product, inverse) call this."""
        h = object.__new__(cls)
        h.pts = pts
        h.den = den
        return h

    @property
    def context(self) -> PLContext:
        return PLContext()

    @property
    def breakpoints(self) -> Tuple[Point, ...]:
        """The breakpoints as Fractions, derived from ``pts`` and ``den``."""
        den = self.den
        return tuple([(Fraction(x, den), Fraction(y, den)) for x, y in self.pts])

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        return Fraction(*self._at(x.numerator, x.denominator))

    def _at(self, n: int, q: int) -> IntPoint:
        """The value at n / q, for q > 0, as an unreduced (num, den > 0)."""
        pts = self.pts
        # in the units of pts, x is t / q
        t = n * self.den
        if not pts or t <= pts[0][0] * q or t >= pts[-1][0] * q:
            return n, q
        # the last breakpoint with x_i <= t / q, that is x_i <= floor(t / q)
        i = bisect_right(pts, t // q, key=itemgetter(0)) - 1
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        w = x1 - x0
        return y0 * w * q + (y1 - y0) * (t - x0 * q), self.den * q * w

    def inverse(self) -> "PLHomeo":
        # reflecting in the diagonal keeps the list canonical
        return PLHomeo._trusted(tuple([(y, x) for x, y in self.pts]), self.den)

    def __mul__(self, other: "PLHomeo") -> "PLHomeo":
        return pl_compose(self, other)

    def is_identity(self) -> bool:
        return not self.pts

    def __eq__(self, other):
        if not isinstance(other, PLHomeo):
            return NotImplemented
        return self.den == other.den and self.pts == other.pts

    def __hash__(self):
        return hash((self.pts, self.den))

    def __repr__(self):
        return "PL" + repr([(str(x), str(y)) for x, y in self.breakpoints])

    def slopes(self) -> Tuple[Fraction, ...]:
        return tuple(
            Fraction(y1 - y0, x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.pts, self.pts[1:])
        )


def pl_compose(f: PLHomeo, g: PLHomeo) -> PLHomeo:
    """Exact composition f . g (apply g first); F and G are the
    denominators of f and g.  If one is the identity, the product is the
    other.  Else it is one merge walk over the images y_i of g's
    breakpoints (x_i, y_i) and the breakpoints (u_j, v_j) of f, in
    increasing order of that middle coordinate, compared as y_i F and
    u_j G.  Each y_i yields (x_i, f(y_i)) and each u_j yields
    (g^-1(u_j), v_j), the other map interpolated inside the segment the
    walk is in, or the identity outside its breakpoints.  Each point is
    an integer triple (X, Y, Q) standing for (X / Q, Y / Q); the triples
    are brought to the lcm of their Q at the end, and ``_merge`` reduces
    that."""
    gb, fb = g.pts, f.pts
    if not gb or not fb:
        return f if not gb else g
    G, F = g.den, f.den
    FG = F * G
    m, k = len(gb), len(fb)
    i = j = 0
    pts: List[Tuple[int, int, int]] = []
    while i < m or j < k:
        if i < m and (j == k or gb[i][1] * F < fb[j][0] * G):
            x, z = gb[i]
            i += 1
            if 0 < j < k:
                (u0, v0), (u1, v1) = fb[j - 1], fb[j]
                w = u1 - u0
                pt = (x * F * w, v0 * G * w + (v1 - v0) * (z * F - u0 * G), FG * w)
            else:
                pt = (x, z, G)
        elif i == m or fb[j][0] * G != gb[i][1] * F:
            z, y = fb[j]
            j += 1
            if 0 < i < m:
                (x0, y0), (x1, y1) = gb[i - 1], gb[i]
                h = y1 - y0
                pt = (x0 * F * h + (x1 - x0) * (z * G - y0 * F), y * G * h, FG * h)
            else:
                pt = (z, y, F)
        else:
            pt = (gb[i][0] * F, fb[j][1] * G, FG)
            i += 1
            j += 1
        if pts:
            X, Y, Q = pt
            Xp, Yp, Qp = pts[-1]
            if X * Qp <= Xp * Q or Y * Qp <= Yp * Q:
                raise AssertionError(
                    f"composition walk not strictly increasing at {(X, Y)} / {Q}"
                )
        pts.append(pt)
    den = lcm(*[Q for _, _, Q in pts])
    return PLHomeo._trusted(
        *_merge([(X * (den // Q), Y * (den // Q)) for X, Y, Q in pts], den)
    )


class IntervalSet:
    """A finite union of disjoint open intervals with rational endpoints,
    held as sorted integer endpoint pairs ``ends`` over one positive
    denominator ``den``, divided by their gcd."""

    __slots__ = ("ends", "den")

    def __init__(self, intervals: Iterable[Sequence]):
        ivs = sorted((_frac(l), _frac(r)) for l, r in intervals)
        for l, r in ivs:
            if l >= r:
                raise ValueError(f"empty or inverted interval ({l}, {r})")
        for (_, r0), (l1, _) in zip(ivs, ivs[1:]):
            if l1 < r0:
                raise ValueError("intervals overlap")
        s = IntervalSet._trusted(
            [((l.numerator, l.denominator), (r.numerator, r.denominator)) for l, r in ivs]
        )
        self.ends, self.den = s.ends, s.den

    @classmethod
    def _trusted(cls, ends: Sequence[Tuple[IntPoint, IntPoint]]) -> "IntervalSet":
        """The union of the intervals (a / p, b / q), p, q > 0, for
        ((a, p), (b, q)) in ends, which must be sorted, disjoint and
        nonempty: supports and images."""
        den = lcm(*[q for iv in ends for _, q in iv])
        flat = [n * (den // q) for iv in ends for n, q in iv]
        g = gcd(den, *flat)
        s = object.__new__(cls)
        it = iter([n // g for n in flat])
        s.ends, s.den = tuple(zip(it, it)), den // g
        return s

    @property
    def intervals(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        den = self.den
        return tuple([(Fraction(l, den), Fraction(r, den)) for l, r in self.ends])

    def __bool__(self):
        return bool(self.ends)

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.den == other.den and self.ends == other.ends

    def __hash__(self):
        return hash((self.ends, self.den))

    def __repr__(self):
        return "{" + ", ".join(f"({l}, {r})" for l, r in self.intervals) + "}"

    def is_disjoint_from(self, other: "IntervalSet") -> bool:
        D, E = self.den, other.den
        return not any(
            l0 * E < r1 * D and l1 * D < r0 * E
            for l0, r0 in self.ends
            for l1, r1 in other.ends
        )

    def contains_set(self, other: "IntervalSet") -> bool:
        """Open containment: every interval of other inside one of self."""
        D, E = self.den, other.den
        return all(
            any(L * E <= l * D and r * D <= R * E for L, R in self.ends)
            for l, r in other.ends
        )

    @staticmethod
    def union(sets: Sequence["IntervalSet"]) -> "IntervalSet":
        """The open set covered by ``sets``.  Overlapping intervals
        merge; intervals that only touch stay apart, since their shared
        endpoint lies in neither."""
        L = lcm(*[s.den for s in sets])
        merged: List[List[int]] = []
        for l, r in sorted([(l * (L // s.den), r * (L // s.den))
                            for s in sets for l, r in s.ends]):
            if merged and l < merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], r)
            else:
                merged.append([l, r])
        return IntervalSet._trusted([((l, L), (r, L)) for l, r in merged])

    def image(self, f: PLHomeo) -> "IntervalSet":
        """Image under an increasing homeomorphism: endpoints map over."""
        D = self.den
        return IntervalSet._trusted([(f._at(l, D), f._at(r, D)) for l, r in self.ends])


def pl_support(g: PLHomeo) -> IntervalSet:
    """The open set {x : g(x) != x} as a finite union of open intervals.

    Isolated interior fixed points split the support: they are not part
    of it, and the flanking intervals stay separate."""
    pts, den = g.pts, g.den
    if not pts:
        return IntervalSet._trusted(())
    # refine with interior diagonal crossings, as (X, Q, d): the point
    # x = X / Q and d, whose sign is that of g(x) - x
    refined: List[Tuple[int, int, int]] = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        d0, d1 = y0 - x0, y1 - x1
        refined.append((x0, den, d0))
        if d0 * d1 < 0:
            # linear in between; exact crossing x0 + (x1 - x0) d0 / (d0 - d1)
            s = d0 - d1
            refined.append((x0 * s + (x1 - x0) * d0, den * s, 0))
    refined.append((pts[-1][0], den, 0))
    # between consecutive refined points g(x) - x is 0 throughout or never,
    # so the support is the gaps between fixed points with a point inside
    fixed = [i for i, (_, _, d) in enumerate(refined) if d == 0]
    out = [(refined[i][:2], refined[j][:2])
           for i, j in zip(fixed, fixed[1:]) if j > i + 1]
    return IntervalSet._trusted(out)


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
    current = I
    for p in range(1, p_max + 1):
        current = current.image(t)
        if not current.is_disjoint_from(I):
            return PropertyReport.failing(f"t^{p}(I) meets I", (t, p))
    return PropertyReport.passing([f"checked powers 1..{p_max}"])


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
