"""Restricted wreath products with cyclic tops and their iterated towers.

Level 0 of a tower is a finite permutation group given by generators;
level i+1 is (level i) wr Z/n_{i+1} with the top group acting by
translating coordinates: (f, k)(g, l) = (f . k|>g, k+l) where
(k|>g)(x) = g(x - k).  Only finite levels are ever materialized; the
sequence of top orders comes from a lazy rule.

Every wreath context carries ``lower``, the context one level below.
``WreathElement(...)`` rejects duplicate indices and values outside
``lower``; products (one merge of the two supports), inverses and
enumerated elements share its normalization but skip its checks.
Tower contexts are built once per tower and level and compare by
identity; a ``ZWreathContext`` is not interned and compares by ``lower``.
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


def _primes():
    n = 2
    while True:
        if all(n % p for p in range(2, int(n**0.5) + 1)):
            yield n
        n += 1


class TowerSpec:
    """Base group plus the sequence of cyclic top orders.

    ``rule`` is one of:
      ("prefix", (n1, n2, ...))      -- explicit finite prefix
      ("constant", c)                -- n_i = c for all i
      ("primes",)                    -- n_i = i-th prime (increasing primes)
      ("prime-products", (p1, ...))  -- n_i = p1 * ... * p_i for the given
                                        increasing primes, cycled as needed
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
        if kind == "prefix":
            seq = self.rule[1]
            if i > len(seq):
                raise ValueError(f"prefix of length {len(seq)} has no n_{i}")
            value = seq[i - 1]
        elif kind == "constant":
            value = self.rule[1]
        elif kind == "primes":
            value = next(itertools.islice(_primes(), i - 1, None))
        elif kind == "prime-products":
            ps = self.rule[1]
            value = 1
            for j in range(i):
                value *= ps[j % len(ps)]
        else:
            raise ValueError(f"unknown rule {kind!r}")
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

    def reduce(self, idx: int) -> int:
        """A coordinate or shift in canonical form, reduced mod n."""
        return idx % self.top_order

    @property
    def identity(self) -> "WreathElement":
        return WreathElement._trusted(self, 0, {})

    def shift_generator(self) -> "WreathElement":
        return WreathElement._trusted(self, 1, {})


class ZWreathContext(WreathContext):
    """A restricted wreath product (lower group) wr Z: unbounded integer
    shifts, finite support maps.  Not enumerable; not tied to a tower,
    and not interned, so it compares by its lower group."""

    top_order = None

    def __init__(self, lower, label: str = ""):
        self.lower = lower
        self.label = label or f"{lower!r} wr Z"

    def __eq__(self, other):
        return isinstance(other, ZWreathContext) and self.lower == other.lower

    def __hash__(self):
        return hash(("z-wreath", self.lower))

    def __repr__(self):
        return self.label

    def reduce(self, idx: int) -> int:
        return idx


class WreathElement:
    """(support function, shift) at some level of a tower.

    The support is a sorted tuple of (index, lower-level element) with
    indices in Z/n and no identity values; the shift is reduced mod n.
    """

    __slots__ = ("context", "shift", "support")

    def __init__(self, context: WreathContext, shift: int, support):
        values: Dict[int, object] = {}
        for idx, val in support:
            if val.context != context.lower:
                raise ContextMismatchError(f"{val!r} does not live in {context.lower!r}")
            idx = context.reduce(idx)
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
        self.shift = context.reduce(shift)
        self.support = tuple(
            sorted((i, v) for i, v in values.items() if not v.is_identity())
        )

    def value_at(self, idx: int):
        idx = self.context.reduce(idx)
        for i, v in self.support:
            if i == idx:
                return v
        return self.context.lower.identity

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if not isinstance(other, WreathElement):
            return NotImplemented
        if self.context != other.context:
            raise ContextMismatchError("wreath elements of different levels/towers")
        reduce = self.context.reduce
        k = self.shift
        # (f, k)(g, l) has value f(m) * g(m - k) at m: fold g into f
        values = dict(self.support)
        for i, v in other.support:
            m = reduce(i + k)
            u = values.get(m)
            values[m] = v if u is None else u * v
        return WreathElement._trusted(self.context, k + other.shift, values)

    def inverse(self) -> "WreathElement":
        reduce = self.context.reduce
        k = self.shift
        values = {reduce(i - k): v.inverse() for i, v in self.support}
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
    if n is None:
        raise ValueError("Z-top wreath elements have no finite realization")
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
