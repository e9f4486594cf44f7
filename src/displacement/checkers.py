"""Displacement-property certificate verifiers.

Each check_* function takes a subgroup together with the quantified
witness data of one displacement property (a conjugating element, a
cyclic order, a generator map, a pair of elements, an interval plus a
translation-like map) and verifies the defining conditions on
generators, returning a PropertyReport.  ``VERIFIERS`` maps each
property tag to its checker, and ``verify_certificate`` is the one way
from a ``WitnessCertificate`` to its report: the witness producers
(here and in ``wreath`` and ``matrices``) return certificates only.

Conditions quantified over all integer powers are verified up to an
explicit p_max and reported as "bounded-pass"; these checks never claim
an unbounded universal.

The commuting-conjugate conditions [H, t^p H t^-p] = 1 (CC at p = 1,
and so the first condition of mitosis; CZNC and CZC up to their bound)
are tested in one loop, ``_conjugates_commute``.  It takes the support
route first where the realization has supports (permutations and PL
maps): if t^p moves supp H off itself, H and its conjugate have disjoint
supports and so commute, with no product formed.  A power whose support
meets supp H, and every power of a realization without supports
(wreath elements, matrices, Britton words), goes to the generator
products.  The same fact settles the dissipator's diagonals once t is
shown to displace X (see ``check_dissipator``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

# commutator is unused here but stays a module attribute: the benchmark
# tracer (bench/tracer.py) patches it by name
from .core import (
    FgSubgroup,
    PropertyReport,
    _Record,
    _require_same_context,
    commutator,
    commutes,
    subgroups_commute,
)
from .perms import Permutation
from .plmaps import IntervalSet, PLHomeo, displaces, pl_support


class WitnessCertificate(_Record):
    """A displacement property together with its quantified witnesses.

    ``payload`` holds the witness data keyed by name: "t" for a
    conjugator, "n" for a cyclic order, "p_max" for a power bound,
    "t1"/"t2" for a mitosis pair, "f" for a generator map, "X"/"S"/"s"
    and "membership" where the property needs them.
    """

    __slots__ = ("property", "subject", "payload", "bounds")

    def __init__(
        self, property: str, subject: FgSubgroup, payload: dict, bounds: Optional[dict] = None
    ):
        if property not in VERIFIERS:
            raise ValueError(f"unknown property tag {property!r}")
        self.property = property
        self.subject = subject
        self.payload = payload
        self.bounds = {} if bounds is None else bounds


class GeneratorMap:
    """Generator images of a homomorphism out of a finitely generated
    subgroup, stored as an ordered (generator, image) pairing."""

    def __init__(self, H: FgSubgroup, images: Sequence):
        images = tuple(images)
        if len(images) != len(H.generators):
            raise ValueError(
                f"{len(images)} images for {len(H.generators)} generators"
            )
        self.subject = H
        self.pairs: Tuple[tuple, ...] = tuple(zip(H.generators, images))
        self.images = images

    def image_subgroup(self) -> FgSubgroup:
        return FgSubgroup(
            f"f({self.subject.label})", list(self.images), context=self.subject.context
        )


def _moved_points(gens) -> frozenset:
    """supp H for permutations: the points some generator moves."""
    return frozenset([i for g in gens for i, j in enumerate(g.images) if i != j])


def _pushed_points(points, t) -> list:
    """t(points) for a permutation t."""
    images = t.images
    return [images[i] for i in points]


def _pl_support(gens) -> IntervalSet:
    """supp H for PL maps: the union of the generators' supports."""
    return IntervalSet.union([pl_support(g) for g in gens])


# realization -> (supp H from H's generators, a support pushed one step
# by t, whether two supports are disjoint): the realizations whose
# conjugates _conjugates_commute tries to settle by support displacement
_SUPPORT_ROUTES = {
    Permutation: (_moved_points, _pushed_points, frozenset.isdisjoint),
    PLHomeo: (_pl_support, IntervalSet.image, IntervalSet.is_disjoint_from),
}


def _power(t, n: int):
    """t^n for n >= 1 by square-and-multiply, in O(log n) products."""
    result = None
    while True:
        if n & 1:
            result = t if result is None else result * t
        n >>= 1
        if not n:
            return result
        t = t * t


def _conjugates_commute(H: FgSubgroup, t, stop: int):
    """[H, t^p H t^-p] = 1 for 1 <= p < stop: the shared power loop of
    the Z/n- and Z-conjugates conditions.

    Where t's realization has supports, supp H is pushed one step by t
    at each power, and a power p with t^p(supp H) disjoint from supp H
    passes with no product formed: H and t^p H t^-p then have disjoint
    supports.  Any other power conjugates the last conjugate formed by
    t as often as it lags, K_p = t K_(p-1) t^-1, and the generator
    products decide, so the first failing power and its counterexample
    are those of the product route.  t^-1 is built at the first such
    power.  Returns the failing report, or None."""
    route = _SUPPORT_ROUTES.get(type(t))
    if route is not None:
        if H.generators:
            _require_same_context(t, H)
        support, push, disjoint = route
        supp = support(H.generators)
        moved = supp
    K, q, t_inv = H, 0, None
    for p in range(1, stop):
        if route is not None:
            moved = push(moved, t)
            if disjoint(supp, moved):
                continue
        if t_inv is None:
            t_inv = t.inverse()
        while q < p:
            K = K.conjugate(t, t_inv)
            q += 1
        rep = subgroups_commute(H, K)
        if not rep.ok:
            return PropertyReport.failing(f"[H, t^{p} H t^-{p}] != 1", rep.counterexample)
    return None


def check_cc(H: FgSubgroup, t) -> PropertyReport:
    """Commuting conjugates: [H, t H t^-1] = 1, the power p = 1 of the
    loop the Z/n- and Z-conjugates conditions share."""
    failure = _conjugates_commute(H, t, 2)
    if failure is not None:
        return failure
    return PropertyReport.passing(["[H, t H t^-1] = 1"])


def check_cznc(H: FgSubgroup, t, n: int) -> PropertyReport:
    """Commuting Z/n-conjugates: [H, t^p H t^-p] = 1 for 1 <= p < n and
    t^n centralizes H, that is t^n h = h t^n for every generator h, with
    t^n built by square-and-multiply, which needs no t^-1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    failure = _conjugates_commute(H, t, n)
    if failure is not None:
        return failure
    tn = _power(t, n)
    h = next((h for h in H.generators if not commutes(tn, h)), None)
    if h is not None:
        return PropertyReport.failing(f"t^{n} does not centralize H", (h, tn))
    checks = [f"[H, t^{p} H t^-{p}] = 1" for p in range(1, n)]
    checks.append(f"t^{n} centralizes the generators")
    return PropertyReport.passing(checks)


def check_czc(H: FgSubgroup, t, p_max: int) -> PropertyReport:
    """Commuting Z-conjugates, verified for 1 <= p <= p_max.  The best
    possible verdict is bounded-pass."""
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    failure = _conjugates_commute(H, t, p_max + 1)
    if failure is not None:
        return failure
    return PropertyReport.bounded([f"[H, t^p H t^-p] = 1 for p = 1..{p_max}"])


def check_ccc(H: FgSubgroup, t, n, p_max: int = 10) -> PropertyReport:
    """Commuting cyclic conjugates: finite n dispatches to the Z/n
    check, n = None (read as infinity) to the bounded Z check."""
    if n is None:
        return check_czc(H, t, p_max)
    return check_cznc(H, t, n)


def check_binate(H: FgSubgroup, f: GeneratorMap, t) -> PropertyReport:
    """Binate data: [H, f(H)] = 1 and t f(h) t^-1 = h * f(h).

    Both conditions are generator-level; this suffices because, given
    the first condition and f a homomorphism, h -> h * f(h) and
    h -> t f(h) t^-1 are homomorphisms agreeing on generators.  That f
    is a homomorphism is assumed, and the report says so.
    """
    if f.subject is not H:
        raise ValueError("generator map was built for a different subgroup")
    rep = subgroups_commute(H, f.image_subgroup())
    if not rep.ok:
        return PropertyReport.failing("[H, f(H)] != 1", rep.counterexample)
    if f.pairs:
        _require_same_context(t, H)
    t_inv = t.inverse()
    for h, fh in f.pairs:
        if t * fh * t_inv != h * fh:
            return PropertyReport.failing("t f(h) t^-1 != h * f(h)", (h, fh))
    return PropertyReport.passing(
        [
            "[H, f(H)] = 1 on generators",
            "t f(h) t^-1 = h * f(h) on generators",
            "f assumed to be a homomorphism (no relators supplied)",
        ]
    )


def check_mitotic(H: FgSubgroup, t1, t2) -> PropertyReport:
    """Mitosis data: [H, t1 H t1^-1] = 1 and t2 h t2^-1 = h * t1 h t1^-1."""
    cc = check_cc(H, t1)
    if not cc.ok:
        return PropertyReport.failing("[H, t1 H t1^-1] != 1", cc.counterexample)
    for h, h1, h2 in zip(H, H.conjugate(t1), H.conjugate(t2)):
        if h2 != h * h1:
            return PropertyReport.failing("t2 h t2^-1 != h * t1 h t1^-1", (h,))
    return PropertyReport.passing(
        ["[H, t1 H t1^-1] = 1 on generators", "t2-conjugation splits every generator"]
    )


def check_dissipator(X, t, sample: FgSubgroup, p_max: int) -> PropertyReport:
    """Dissipation data on an interval set X: every positive power of t
    (up to p_max) displaces X off itself, and so the truncated diagonal
    products prod_{q<=p} t^q g t^-q commute with the sample, which must
    be supported inside X (checked, error otherwise).  The second is
    stated, not tested: each piece t^q g t^-q is supported in t^q(X),
    which misses X."""
    for g in sample.generators:
        if not X.contains_set(pl_support(g)):
            raise ValueError(f"sample generator {g!r} not supported inside X")
    disp = displaces(t, X, p_max)
    if not disp.ok:
        return PropertyReport.failing("t fails to displace X", disp.counterexample)
    implied = (
        f"so truncated diagonals commute with the sample up to depth {p_max}:"
        " t^q g t^-q is supported in t^q(X), off X"
    )
    return PropertyReport.bounded([*disp.checks, implied])


def check_M(
    Lam: FgSubgroup,
    t,
    S: Sequence,
    s,
    p_max: int,
    membership: Callable[[object], bool],
) -> PropertyReport:
    """The two conditions of the conjugates-in-a-commuting-Z-conjugate
    property, at desk scale: [Lam, t^p Lam t^-p] = 1 for p <= p_max, and
    every element of the finite set S lies in s <Lam> s^-1 (equivalently
    s^-1 x s is in <Lam>, decided by the supplied membership oracle)."""
    czc = check_czc(Lam, t, p_max)
    if not czc.ok:
        return czc
    checks = list(czc.checks)
    if S:
        _require_same_context(s, S[0])
    s_inv = s.inverse()
    for x in S:
        if not membership(s_inv * x * s):
            return PropertyReport.failing("element not contained in the conjugate", (x, s))
    checks.append(f"all {len(list(S))} sample elements lie in s <Lam> s^-1")
    return PropertyReport.bounded(checks)


# property tag -> verifier of (subject, payload); the keys are the
# valid tags of a WitnessCertificate
VERIFIERS: Dict[str, Callable[[FgSubgroup, dict], PropertyReport]] = {
    "CC": lambda H, p: check_cc(H, p["t"]),
    "CCC": lambda H, p: check_ccc(H, p["t"], p.get("n"), p.get("p_max", 10)),
    "CZC": lambda H, p: check_czc(H, p["t"], p["p_max"]),
    "CZNC": lambda H, p: check_cznc(H, p["t"], p["n"]),
    "M": lambda H, p: check_M(H, p["t"], p["S"], p["s"], p["p_max"], p["membership"]),
    "BINATE": lambda H, p: check_binate(H, p["f"], p["t"]),
    "MITOTIC": lambda H, p: check_mitotic(H, p["t1"], p["t2"]),
    "DISSIPATOR": lambda H, p: check_dissipator(p["X"], p["t"], H, p["p_max"]),
}


def verify_certificate(cert: WitnessCertificate) -> PropertyReport:
    """Re-check any certificate against its defining conditions."""
    return VERIFIERS[cert.property](cert.subject, cert.payload)
