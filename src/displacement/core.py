"""Realization-independent group algebra.

Every concrete realization (permutations, rational matrices, wreath
elements, PL homeomorphisms, Britton words) exposes the same small
element interface:

  * ``elem.context``  -- hashable descriptor of the ambient group
  * ``elem * other``  -- group product
  * ``elem.inverse()``
  * ``elem.is_identity()``
  * equality and hashing by canonical form

The free functions here (``conj``, ``commutator``, ``commutes``,
``subgroups_commute``) work uniformly over any of them.  ``commutes``
is the one commutation test; ``conj`` and ``commutator`` enforce that
both operands live in the same ambient group.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Tuple


# the default cap on exhaustive searches and enumerations
DEFAULT_BUDGET = 10**7


class ContextMismatchError(ValueError):
    """An operation mixed elements of different ambient groups."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search would exceed its configured budget."""


def _require_same_context(a, b) -> None:
    if a.context != b.context:
        raise ContextMismatchError(
            f"elements live in different groups: {a.context!r} vs {b.context!r}"
        )


def conj(t, g):
    """Conjugate t*g*t^-1."""
    _require_same_context(t, g)
    return t * g * t.inverse()


def commutator(a, b):
    """[a, b] = a*b*a^-1*b^-1; identity iff a and b commute."""
    _require_same_context(a, b)
    return a * b * a.inverse() * b.inverse()


def commutes(a, b) -> bool:
    """Whether a*b = b*a, decided by comparing the two products.  This
    is exact because equality is canonical in every realization: image
    tuples (permutations), sorted supports with reduced shifts (wreath),
    reduced and trimmed (num, den) pairs (matrices), merged and reduced
    (pts, den) pairs (PL maps) and normal forms (Britton words)."""
    return a * b == b * a


class _Record:
    """Equality, hashing and repr over the fields that ``__slots__`` names,
    in order, as a frozen dataclass defines them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__slots__])
        return f"{type(self).__name__}({fields})"


class PropertyReport(_Record):
    """Structured outcome of a property check, the one result type from
    checker to report: each field becomes one key of the check's report
    entry (``verdict``, ``checks`` as ``detail``, ``counterexample``).

    ``verdict`` is one of "pass", "fail", "bounded-pass" or
    "not-applicable"; searches report "some" when they found a witness
    and "none" when they exhausted their space without one.  On failure
    ``counterexample`` holds a re-checkable witness (typically a pair of
    elements whose commutator is nontrivial); on "some" it holds the
    witness found.
    """

    __slots__ = ("verdict", "checks", "counterexample")

    def __init__(
        self, verdict: str, checks: Tuple[str, ...] = (), counterexample: Optional[Any] = None
    ):
        self.verdict = verdict
        self.checks = checks
        self.counterexample = counterexample

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass", "bounded-pass")

    @staticmethod
    def passing(checks: Sequence[str] = ()) -> "PropertyReport":
        return PropertyReport("pass", tuple(checks))

    @staticmethod
    def bounded(checks: Sequence[str] = ()) -> "PropertyReport":
        return PropertyReport("bounded-pass", tuple(checks))

    @staticmethod
    def failing(
        reason: str, counterexample: Optional[Any] = None, checks: Sequence[str] = ()
    ) -> "PropertyReport":
        return PropertyReport("fail", tuple(checks) + (reason,), counterexample)


class FgSubgroup:
    """A named finite generator list for a subgroup.

    Identity generators are dropped and duplicates removed (order of
    first occurrence is kept).  The list may normalize to empty; such a
    subgroup is trivial and commutes with everything.
    """

    def __init__(self, label: str, generators: Iterable[Any], context=None):
        gens = []
        for g in generators:
            if not g.is_identity() and not any(g == h for h in gens):
                gens.append(g)
        if gens:
            ctx = gens[0].context
            for g in gens[1:]:
                if g.context != ctx:
                    raise ContextMismatchError(
                        f"generators of {label!r} live in different groups"
                    )
            if context is not None and context != ctx:
                raise ContextMismatchError(
                    f"declared context of {label!r} does not match its generators"
                )
            context = ctx
        self.label = label
        self.generators: Tuple[Any, ...] = tuple(gens)
        self.context = context

    def __repr__(self):
        return f"FgSubgroup({self.label!r}, {len(self.generators)} generators)"

    def __iter__(self):
        return iter(self.generators)

    def is_trivial(self) -> bool:
        return not self.generators

    def conjugate(self, t, t_inv=None) -> "FgSubgroup":
        """The subgroup t H t^-1, generator by generator: generator i of
        the result is t h_i t^-1, with ``t_inv`` as t^-1 when the caller
        already has it.  Conjugation by t is an injective homomorphism,
        so the list stays free of identities and duplicates and skips
        the constructor's normalization."""
        if self.generators:
            _require_same_context(t, self)
        if t_inv is None:
            t_inv = t.inverse()
        K = object.__new__(FgSubgroup)
        K.label = f"^({self.label})"
        K.generators = tuple(t * g * t_inv for g in self.generators)
        K.context = self.context
        return K


def subgroups_commute(H: FgSubgroup, K: FgSubgroup) -> PropertyReport:
    """Check [H, K] = 1 on generator pairs.

    Generator level suffices: the centralizer of K is a subgroup, so if
    every generator of H centralizes every generator of K then <H> and
    <K> commute elementwise.
    """
    if H.is_trivial() or K.is_trivial():
        return PropertyReport.passing(["trivial factor"])
    if H.context != K.context:
        raise ContextMismatchError("subgroups live in different groups")
    for h in H.generators:
        for k in K.generators:
            if not commutes(h, k):
                return PropertyReport.failing("generators do not commute", (h, k))
    n = len(H.generators) * len(K.generators)
    return PropertyReport.passing([f"{n} generator pairs checked"])


def enumerate_subgroup(generators: Sequence[Any], budget: int = DEFAULT_BUDGET) -> list:
    """Full enumeration of <generators> by breadth-first closure.

    Deterministic: elements appear in BFS order seeded by the identity
    and the given generator order.  Raises BudgetExceededError if the
    subgroup has more than ``budget`` elements.
    """
    if not generators:
        raise ValueError("cannot enumerate subgroup without a context-bearing generator")
    identity = generators[0].context.identity
    gens = list(generators) + [g.inverse() for g in generators]
    elems = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    if len(elems) >= budget:
                        raise BudgetExceededError(
                            f"subgroup enumeration exceeded budget {budget}"
                        )
                    seen.add(y)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def element_order(g, budget: int = 10**6) -> int:
    """Order of g in a realization where powers eventually cycle."""
    p = g
    n = 1
    while not p.is_identity():
        p = p * g
        n += 1
        if n > budget:
            raise BudgetExceededError(f"element order exceeds budget {budget}")
    return n
