"""Restricted wreath products with cyclic tops and their iterated towers.

Level 0 of a tower is a finite permutation group given by generators;
level i+1 is (level i) wr Z/n_{i+1} with the top group acting by
translating coordinates: (f, k)(g, l) = (f . k|>g, k+l) where
(k|>g)(x) = g(x - k).  Every level is finite: its top order comes from
an explicit prefix of orders.

Every wreath context carries ``lower``, the context one level below.
``WreathElement(...)`` rejects duplicate indices and values outside
``lower``; products (one merge of the two supports), inverses and
enumerated elements share its normalization but skip its checks.
Tower contexts are built once per tower and level and compare by
identity.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Dict, List, Optional

from .checkers import WitnessCertificate, check_cznc
# commutator and subgroups_commute are unused here but stay module
# attributes: the benchmark tracer (bench/tracer.py) patches them by name
from .core import (
    BudgetExceededError,
    ContextMismatchError,
    FgSubgroup,
    commutator,
    enumerate_subgroup,
    subgroups_commute,
)
from .perms import Permutation, SymmetricGroupContext

SEARCH_BUDGET = 10**7


class TowerSpec:
    """Base group plus the sequence of cyclic top orders.

    ``rule`` is ("prefix", (n1, n2, ...)): level i has top Z/n_i, for
    every level the prefix covers.
    """

    def __init__(self, base: FgSubgroup, rule: tuple):
        if base.context is None:
            raise ValueError("tower base needs a context")
        self.base = base
        self.rule = rule
        self.label = f"{base.label} tower {rule!r}"
        self._contexts: Dict[int, "WreathContext"] = {}
        self._base_elems: Optional[List[Permutation]] = None
        self._orbit_reps: Optional[List["WreathElement"]] = None

    def n(self, i: int) -> int:
        """Top order of level i (1-based)."""
        if i < 1:
            raise ValueError("levels are 1-based")
        kind = self.rule[0]
        if kind != "prefix":
            raise ValueError(f"unknown rule {kind!r}")
        seq = self.rule[1]
        if i > len(seq):
            raise ValueError(f"prefix of length {len(seq)} has no n_{i}")
        value = seq[i - 1]
        if value < 2:
            raise ValueError(f"n_{i} = {value} < 2")
        return value

    def context(self, level: int) -> "WreathContext":
        if level < 1:
            raise ValueError("wreath levels start at 1")
        if level not in self._contexts:
            self._contexts[level] = WreathContext(self, level)
        return self._contexts[level]

    def base_elements(self, budget: int = SEARCH_BUDGET) -> List[Permutation]:
        """Deterministic full enumeration of the base group."""
        if self._base_elems is None:
            G = self.base
            elems = enumerate_subgroup([G.context.identity, *G.generators], budget)
            self._base_elems = sorted(elems, key=lambda p: p.images)
        return self._base_elems

    def class_minima(self, budget: int = SEARCH_BUDGET) -> List[Permutation]:
        """The least element of each conjugacy class of the base group,
        in the order of ``base_elements``.  Elements are visited in that
        order, so the first element of each class is its minimum."""
        gens = [(s, s.inverse()) for s in self.base.generators]
        seen = set()
        minima = []
        for g in self.base_elements(budget):
            if g in seen:
                continue
            cls = [g]
            seen.add(g)
            for x in cls:  # closure under conjugation by the generators
                for s, s_inv in gens:
                    y = s * x * s_inv
                    if y not in seen:
                        seen.add(y)
                        cls.append(y)
            minima.append(cls[0])
        return minima

    def __repr__(self):
        return f"TowerSpec({self.label})"


class WreathContext:
    """Level i of a tower: (level i-1) wr Z/n_i, one object per tower and
    level.  ``lower`` is the context one level below."""

    def __init__(self, tower: TowerSpec, level: int):
        self.tower = tower
        self.level = level
        self.top_order = tower.n(level)
        self.lower = tower.base.context if level == 1 else tower.context(level - 1)

    def __repr__(self):
        return f"{self.tower.label}[level {self.level}]"

    @property
    def identity(self) -> "WreathElement":
        return WreathElement._trusted(self, 0, {})

    def shift_generator(self) -> "WreathElement":
        return WreathElement._trusted(self, 1, {})


class WreathElement:
    """(support function, shift) at some level of a tower.

    The support is a sorted tuple of (index, lower-level element) with
    indices in Z/n and no identity values; the shift is reduced mod n.
    """

    __slots__ = ("context", "shift", "support")

    def __init__(self, context: WreathContext, shift: int, support):
        n = context.top_order
        values: Dict[int, object] = {}
        for idx, val in support:
            if val.context != context.lower:
                raise ContextMismatchError(f"{val!r} does not live in {context.lower!r}")
            idx %= n
            if idx in values:
                raise ValueError(f"duplicate support index {idx}")
            values[idx] = val
        self._normalize(context, shift, values)

    @classmethod
    def _trusted(
        cls, context: WreathContext, shift: int, values: Dict[int, object]
    ) -> "WreathElement":
        """The element with this shift and these values, keyed by reduced
        coordinates in the level below.  Only closed operations (product,
        inverse, enumeration) call this."""
        w = object.__new__(cls)
        w._normalize(context, shift, values)
        return w

    def _normalize(self, context, shift: int, values: Dict[int, object]) -> None:
        """The canonical form: identity values dropped, the shift reduced,
        the support sorted by index."""
        self.context = context
        self.shift = shift % context.top_order
        self.support = tuple(
            sorted((i, v) for i, v in values.items() if not v.is_identity())
        )

    def value_at(self, idx: int):
        idx %= self.context.top_order
        for i, v in self.support:
            if i == idx:
                return v
        return self.context.lower.identity

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if not isinstance(other, WreathElement):
            return NotImplemented
        if self.context != other.context:
            raise ContextMismatchError("wreath elements of different levels/towers")
        n = self.context.top_order
        k = self.shift
        # (f, k)(g, l) has value f(m) * g(m - k) at m: fold g into f
        values = dict(self.support)
        for i, v in other.support:
            m = (i + k) % n
            u = values.get(m)
            values[m] = v if u is None else u * v
        return WreathElement._trusted(self.context, k + other.shift, values)

    def inverse(self) -> "WreathElement":
        n = self.context.top_order
        k = self.shift
        values = {(i - k) % n: v.inverse() for i, v in self.support}
        return WreathElement._trusted(self.context, -k, values)

    def is_identity(self) -> bool:
        return self.shift == 0 and not self.support

    def __eq__(self, other):
        if not isinstance(other, WreathElement):
            return NotImplemented
        return (
            self.context == other.context
            and self.shift == other.shift
            and self.support == other.support
        )

    def __hash__(self):
        return hash((self.context, self.shift, self.support))

    def __repr__(self):
        sup = ", ".join(f"{v!r}@{i}" for i, v in self.support)
        return f"W(shift={self.shift}; {sup})"


def embed_level(x, context) -> WreathElement:
    """Standard embedding of a lower-level element at coordinate 0; the
    constructor rejects an x that does not live one level below."""
    return WreathElement(context, 0, [(0, x)])


def embed_to_level(x, tower: TowerSpec, level: int) -> WreathElement:
    """Iterate the standard embeddings from the base (or a lower level)
    up to the requested level."""
    current = x
    start = current.context.level if isinstance(current, WreathElement) else 0
    for i in range(start + 1, level + 1):
        current = embed_level(current, tower.context(i))
    return current


def embed_subgroup(H: FgSubgroup, tower: TowerSpec, level: int) -> FgSubgroup:
    gens = [embed_to_level(g, tower, level) for g in H.generators]
    return FgSubgroup(f"{H.label}@{level}", gens, context=tower.context(level))


def _iroot(x: int, k: int) -> int:
    """The largest r with r**k <= x: integer Newton steps from above."""
    r = 1 << -(-x.bit_length() // k)
    s = r + 1
    while 0 < r < s:
        r, s = ((k - 1) * r + x // r ** (k - 1)) // k, r
    return min(r, s)


def level_order(tower: TowerSpec, level: int, budget: int = SEARCH_BUDGET) -> int:
    """The order of a tower level, checked against ``budget`` before the
    base group is enumerated past the most the level affords: level i-1
    may have the n_i-th root of (what level i may have) // n_i elements."""
    cap = budget
    for i in range(level, 0, -1):
        cap = _iroot(cap // tower.n(i), tower.n(i))
    try:
        size = len(tower.base_elements(cap))
    except BudgetExceededError:
        raise BudgetExceededError(f"level {level} order exceeds budget {budget}") from None
    for i in range(1, level + 1):
        n = tower.n(i)
        size = size**n * n
        if size > budget:
            raise BudgetExceededError(f"level {level} order exceeds budget {budget}")
    return size


def enumerate_level(tower: TowerSpec, level: int, budget: int = SEARCH_BUDGET):
    """Yield every element of a finite wreath level in canonical order:
    lexicographic in the values at coordinates 0, 1, ..., n-1 (each
    ordered as the level below enumerates it), then by shift.

    This is the raw space.  The level-1 searches walk it only when the
    base group does not normalize H; otherwise they walk
    ``base_conjugacy_representatives``, its least elements per orbit."""
    level_order(tower, level, budget)
    if level == 0:
        yield from tower.base_elements(budget)
        return
    ctx = tower.context(level)
    n = ctx.top_order
    lower = list(enumerate_level(tower, level - 1, budget))
    for values in itertools.product(lower, repeat=n):
        values = dict(enumerate(values))
        for shift in range(n):
            yield WreathElement._trusted(ctx, shift, values)


def base_conjugacy_representatives(
    tower: TowerSpec, budget: int = SEARCH_BUDGET
) -> List[WreathElement]:
    """One element of level 1 per orbit of the base group B = G^n acting
    by conjugation, each the least of its orbit in canonical order, and
    sorted in that order.

    Conjugating (f, k) by b in B gives m -> b(m) f(m) b(m - k)^-1, so the
    orbit of (f, k) is fixed by k and by the conjugacy class in G of the
    product of f along each of the d = gcd(k, n) cycles of i -> i + k
    (the classes of a wreath product, James-Kerber, ch. 4).  Cycle c is
    the residue class of c mod d; its least representative puts the
    class minimum at the cycle's greatest point n - d + c and the
    identity everywhere else.  That gives sum_k c^gcd(k, n) elements for
    c conjugacy classes of G."""
    level_order(tower, 1, budget)
    if tower._orbit_reps is None:
        ctx = tower.context(1)
        n = ctx.top_order
        rank = {g: i for i, g in enumerate(tower.base_elements(budget))}
        minima = tower.class_minima(budget)
        keyed = []
        for k in range(n):
            d = gcd(k, n)
            for choice in itertools.product(minima, repeat=d):
                values = {n - d + c: g for c, g in enumerate(choice)}
                keyed.append(([0] * (n - d) + [rank[g] for g in choice], k, values))
        keyed.sort(key=lambda item: item[:2])
        tower._orbit_reps = [WreathElement._trusted(ctx, k, v) for _, k, v in keyed]
    return tower._orbit_reps


def base_normalizes(tower: TowerSpec, level: int, H: FgSubgroup) -> bool:
    """Whether the base group B = G^n of level 1 normalizes H: H lives
    at level 1 at coordinate 0, and its values there generate a normal
    subgroup of G.  Then B-conjugation preserves every condition of a
    conjugator t relative to H, and a search may test one t per orbit."""
    if level != 1 or H.context != tower.context(1):
        return False
    values = []
    for h in H.generators:
        if h.shift or any(i != 0 for i, _ in h.support):
            return False
        values.append(h.value_at(0))
    G = tower.base
    inner = set(enumerate_subgroup([G.context.identity, *values]))
    return all(s * x * s.inverse() in inner for s in G.generators for x in values)


def search_candidates(
    tower: TowerSpec, level: int, H: FgSubgroup, budget: int = SEARCH_BUDGET
):
    """The conjugators a search for H must test, in canonical order: the
    least element of each base-group orbit when the base group
    normalizes H, and every element of the level otherwise.  The first
    t satisfying a conjugation-invariant condition is the same in both,
    because it is the least element of its orbit."""
    if base_normalizes(tower, level, H):
        return base_conjugacy_representatives(tower, budget)
    return enumerate_level(tower, level, budget)


def realize_permutation(w: WreathElement) -> Permutation:
    """The imprimitive permutation realization of a finite wreath level.

    A level-i element acts on blocks of the level-(i-1) realization:
    point (j, x) maps to (j + k, f_{j+k}(x))."""
    ctx = w.context
    n = ctx.top_order
    if ctx.level == 1:
        lower_degree = ctx.lower.degree
        realize_lower = lambda p: p
    else:
        lower_degree = realize_permutation(ctx.lower.identity).context.degree
        realize_lower = realize_permutation
    degree = n * lower_degree
    images = [0] * degree
    k = w.shift
    for j in range(n):
        target_block = (j + k) % n
        f = realize_lower(w.value_at(target_block))
        for x in range(lower_degree):
            images[j * lower_degree + x] = target_block * lower_degree + f.images[x]
    return Permutation(SymmetricGroupContext(degree), images)


def zn_witness(tower: TowerSpec, H: FgSubgroup, i: int, p: int) -> WitnessCertificate:
    """The constructive Z/p witness at level i: with n_i = k*p, the k-th
    power of the level-i shift generator displaces everything below it
    q times for 1 <= q < p, and its p-th power is trivial."""
    n_i = tower.n(i)
    if n_i % p != 0:
        raise ValueError(f"p = {p} does not divide n_{i} = {n_i}")
    k = n_i // p
    ctx = tower.context(i)
    t = WreathElement(ctx, k, ())
    H_up = embed_subgroup(H, tower, i)
    return WitnessCertificate("CZNC", H_up, {"t": t, "n": p}, {"level": i})


def brute_search_zp_witness(
    tower: TowerSpec,
    level: int,
    H: FgSubgroup,
    p: int,
    budget: int = SEARCH_BUDGET,
) -> Optional[WreathElement]:
    """Exhaustive search of a finite wreath level for a Z/p witness for H.

    Returns the first witness in canonical enumeration order, or None
    once the whole level has been exhausted.  Where the base group
    normalizes H, exhaustive means over its conjugacy orbits: one least
    element each, which cover the level because being a witness is
    invariant under that conjugation (``search_candidates``).  Errors
    (rather than subsampling) if the level is larger than the budget."""
    if H.context != tower.context(level):
        raise ContextMismatchError("H must live at the searched level")
    for t in search_candidates(tower, level, H, budget):
        if check_cznc(H, t, p).ok:
            return t
    return None


def sym_zn_witness(H: FgSubgroup, n: int) -> WitnessCertificate:
    """Z/n witness inside Sym(k*n) for H <= Sym(k): t is the product of
    the n-cycles (j, j+k, ..., j+(n-1)k)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if H.is_trivial():
        k = 1
    else:
        k = H.context.degree
    degree = k * n
    big = SymmetricGroupContext(degree)
    images = [((x + k) % degree) for x in range(degree)]
    t = Permutation(big, images)
    H_big = FgSubgroup(
        f"{H.label} in Sym({degree})",
        [g.extend(degree) for g in H.generators],
        context=big,
    )
    return WitnessCertificate("CZNC", H_big, {"t": t, "n": n})
