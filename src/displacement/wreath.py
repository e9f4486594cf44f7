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

    def __init__(self, base: FgSubgroup, rule: tuple, label: str = ""):
        if base.context is None:
            raise ValueError("tower base needs a context")
        self.base = base
        self.rule = rule
        self.label = label or f"{base.label} tower {rule!r}"
        self._contexts: Dict[int, "WreathContext"] = {}
        self._base_elems: Optional[List[Permutation]] = None

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
            elems = enumerate_subgroup(list(self.base.generators), budget)
            self._base_elems = sorted(elems, key=lambda p: p.images)
        return self._base_elems

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


def level_order(tower: TowerSpec, level: int, budget: int = SEARCH_BUDGET) -> int:
    size = len(tower.base_elements(budget))
    for i in range(1, level + 1):
        n = tower.n(i)
        size = size**n * n
        if size > budget:
            raise BudgetExceededError(f"level {level} order exceeds budget {budget}")
    return size


def enumerate_level(tower: TowerSpec, level: int, budget: int = SEARCH_BUDGET):
    """Yield every element of a finite wreath level in canonical order
    (lexicographic in the support tuple, then by shift)."""
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


def zn_witness(tower: TowerSpec, H: FgSubgroup, i: int, p: int):
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
    report = check_cznc(H_up, t, p)
    cert = WitnessCertificate(
        property="CZNC", subject=H_up, payload={"t": t, "n": p}, bounds={"level": i}
    )
    return cert, report


def brute_search_zp_witness(
    tower: TowerSpec,
    level: int,
    H: FgSubgroup,
    p: int,
    budget: int = SEARCH_BUDGET,
) -> Optional[WreathElement]:
    """Exhaustive search of a finite wreath level for a Z/p witness for H.

    Returns the first witness in canonical enumeration order, or None
    once the whole level has been exhausted.  Errors (rather than
    subsampling) if the level is larger than the budget."""
    if H.context != tower.context(level):
        raise ContextMismatchError("H must live at the searched level")
    for t in enumerate_level(tower, level, budget):
        if check_cznc(H, t, p).ok:
            return t
    return None


def sym_zn_witness(H: FgSubgroup, n: int):
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
    report = check_cznc(H_big, t, n)
    cert = WitnessCertificate(
        property="CZNC", subject=H_big, payload={"t": t, "n": n}, bounds={}
    )
    return cert, report
