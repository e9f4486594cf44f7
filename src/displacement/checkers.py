"""Displacement-property certificate verifiers.

Each check_* function takes a subgroup together with the quantified
witness data of one displacement property (a conjugating element, a
cyclic order, a generator map, a pair of elements, an interval plus a
translation-like map) and verifies the defining conditions on
generators, returning a PropertyReport.

Conditions quantified over all integer powers are verified up to an
explicit p_max and reported as "bounded-pass"; these checks never claim
an unbounded universal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# commutator is unused here but stays a module attribute: the benchmark
# tracer (bench/tracer.py) patches it by name
from .core import (
    FgSubgroup,
    PropertyReport,
    commutator,
    commutes,
    conj,
    enumerate_subgroup,
    product_subgroup,
    subgroups_commute,
)

@dataclass(frozen=True)
class WitnessCertificate:
    """A displacement property together with its quantified witnesses.

    ``payload`` holds the witness data keyed by name: "t" for a
    conjugator, "n" for a cyclic order, "p_max" for a power bound,
    "t1"/"t2" for a mitosis pair, "f" for a generator map, "X"/"S"/"s"
    and "membership" where the property needs them.
    """

    property: str
    subject: FgSubgroup
    payload: dict
    bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.property not in VERIFIERS:
            raise ValueError(f"unknown property tag {self.property!r}")


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

    @staticmethod
    def from_callable(H: FgSubgroup, fn: Callable) -> "GeneratorMap":
        return GeneratorMap(H, [fn(h) for h in H.generators])

    def image_subgroup(self) -> FgSubgroup:
        return FgSubgroup(
            f"f({self.subject.label})", list(self.images), context=self.subject.context
        )


def _word_value(elems: Sequence, identity, word: Sequence[int]):
    """Evaluate a word given as 1-based signed generator indices."""
    out = identity
    for i in word:
        g = elems[abs(i) - 1]
        out = out * (g if i > 0 else g.inverse())
    return out


def check_cc(H: FgSubgroup, t) -> PropertyReport:
    """Commuting conjugates: [H, t H t^-1] = 1 on generators."""
    desc = f"commuting conjugates for {H.label}"
    rep = subgroups_commute(H, H.conjugate(t))
    if not rep.ok:
        return PropertyReport.failing(
            desc, "conjugate does not commute", counterexample=rep.counterexample
        )
    return PropertyReport.passing(desc, rep.checks)


def _conjugates_commute(H: FgSubgroup, t, desc: str, stop: int):
    """[H, t^p H t^-p] = 1 for 1 <= p < stop: the shared power loop of
    the Z/n- and Z-conjugates conditions.  Returns the failing report
    (or None) and t^stop."""
    tp = t
    for p in range(1, stop):
        rep = subgroups_commute(H, H.conjugate(tp))
        if not rep.ok:
            failure = PropertyReport.failing(
                desc, f"[H, t^{p} H t^-{p}] != 1", counterexample=rep.counterexample
            )
            return failure, tp
        tp = tp * t
    return None, tp


def check_cznc(H: FgSubgroup, t, n: int) -> PropertyReport:
    """Commuting Z/n-conjugates: [H, t^p H t^-p] = 1 for 1 <= p < n and
    t^n centralizes H."""
    if n < 2:
        raise ValueError("n must be at least 2")
    desc = f"commuting Z/{n}-conjugates for {H.label}"
    failure, tn = _conjugates_commute(H, t, desc, n)
    if failure is not None:
        return failure
    for h in H.generators:
        if not commutes(h, tn):
            return PropertyReport.failing(
                desc, f"t^{n} does not centralize H", counterexample=(h, tn)
            )
    checks = [f"[H, t^{p} H t^-{p}] = 1" for p in range(1, n)]
    checks.append(f"t^{n} centralizes the generators")
    return PropertyReport.passing(desc, checks)


def check_czc(H: FgSubgroup, t, p_max: int) -> PropertyReport:
    """Commuting Z-conjugates, verified for 1 <= p <= p_max.  The best
    possible verdict is bounded-pass."""
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    desc = f"commuting Z-conjugates for {H.label} (powers up to {p_max})"
    failure, _ = _conjugates_commute(H, t, desc, p_max + 1)
    if failure is not None:
        return failure
    return PropertyReport.bounded(desc, [f"[H, t^p H t^-p] = 1 for p = 1..{p_max}"])


def check_ccc(H: FgSubgroup, t, n, p_max: int = 10) -> PropertyReport:
    """Commuting cyclic conjugates: finite n dispatches to the Z/n
    check, n = None (read as infinity) to the bounded Z check."""
    if n is None:
        return check_czc(H, t, p_max)
    return check_cznc(H, t, n)


def check_binate(
    H: FgSubgroup,
    f: GeneratorMap,
    t,
    relators: Optional[Sequence[Sequence[int]]] = None,
) -> PropertyReport:
    """Binate data: [H, f(H)] = 1 and t f(h) t^-1 = h * f(h).

    Both conditions are generator-level; this suffices because, given
    the first condition and f a homomorphism, h -> h * f(h) and
    h -> t f(h) t^-1 are homomorphisms agreeing on generators.  When
    ``relators`` (words in 1-based signed generator indices) are given,
    homomorphy of f is verified on them; otherwise it is assumed and the
    report says so.
    """
    if f.subject is not H:
        raise ValueError("generator map was built for a different subgroup")
    desc = f"binate data for {H.label}"
    checks: List[str] = []
    rep = subgroups_commute(H, f.image_subgroup())
    if not rep.ok:
        return PropertyReport.failing(
            desc, "[H, f(H)] != 1", counterexample=rep.counterexample
        )
    checks.append("[H, f(H)] = 1 on generators")
    for h, fh in f.pairs:
        if conj(t, fh) != h * fh:
            return PropertyReport.failing(
                desc, "t f(h) t^-1 != h * f(h)", counterexample=(h, fh)
            )
    checks.append("t f(h) t^-1 = h * f(h) on generators")
    if relators is None:
        checks.append("f assumed to be a homomorphism (no relators supplied)")
    else:
        identity = H.context.identity
        for word in relators:
            if not _word_value(H.generators, identity, word).is_identity():
                raise ValueError(f"relator {word} is not trivial in H")
            if not _word_value(f.images, identity, word).is_identity():
                return PropertyReport.failing(
                    desc, f"f breaks relator {word}", counterexample=tuple(word)
                )
        checks.append(f"f respects all {len(list(relators))} relators")
    return PropertyReport.passing(desc, checks)


def check_mitotic(H: FgSubgroup, t1, t2) -> PropertyReport:
    """Mitosis data: [H, t1 H t1^-1] = 1 and t2 h t2^-1 = h * t1 h t1^-1."""
    desc = f"mitosis data for {H.label}"
    H1 = H.conjugate(t1)
    rep = subgroups_commute(H, H1)
    if not rep.ok:
        return PropertyReport.failing(
            desc, "[H, t1 H t1^-1] != 1", counterexample=rep.counterexample
        )
    for h, h1, h2 in zip(H, H1, H.conjugate(t2)):
        if h2 != h * h1:
            return PropertyReport.failing(
                desc, "t2 h t2^-1 != h * t1 h t1^-1", counterexample=(h,)
            )
    return PropertyReport.passing(
        desc,
        ["[H, t1 H t1^-1] = 1 on generators", "t2-conjugation splits every generator"],
    )


def check_dissipator(X, t, sample: FgSubgroup, p_max: int) -> PropertyReport:
    """Dissipation data on an interval set X: every positive power of t
    (up to p_max) displaces X off itself, and the truncated diagonal
    products prod_{p<=q} t^p g t^-p commute with the sample subgroup.

    The sample must be supported inside X (checked, error otherwise)."""
    from .plmaps import displaces, pl_support

    desc = f"dissipator on {X!r} (powers up to {p_max})"
    for g in sample.generators:
        if not X.contains_set(pl_support(g)):
            raise ValueError(f"sample generator {g!r} not supported inside X")
    disp = displaces(t, X, p_max)
    if not disp.ok:
        return PropertyReport.failing(
            desc, "t fails to displace X", counterexample=disp.counterexample
        )
    checks = list(disp.checks)
    for g in sample.generators:
        diag = None
        tp = t
        for q in range(1, p_max + 1):
            piece = conj(tp, g)
            diag = piece if diag is None else diag * piece
            tp = tp * t
            for h in sample.generators:
                if not commutes(h, diag):
                    return PropertyReport.failing(
                        desc,
                        f"truncated diagonal at depth {q} does not commute",
                        counterexample=(h, diag),
                    )
    checks.append(f"truncated diagonals commute with the sample up to depth {p_max}")
    return PropertyReport.bounded(desc, checks)


MembershipOracle = Callable[[object], bool]


def finite_membership(Lam: FgSubgroup, budget: int = 10**7) -> MembershipOracle:
    """Membership oracle by full enumeration of a finite subgroup."""
    elems = set(enumerate_subgroup(list(Lam.generators), budget=budget))
    return lambda x: x in elems


def f_copy_membership() -> MembershipOracle:
    """Membership oracle for the standard Thompson-style copy on (0, 1):
    dyadic breakpoints, power-of-two slopes, support inside (0, 1)."""
    from .plmaps import in_standard_f_copy

    return in_standard_f_copy


def check_M(
    Lam: FgSubgroup,
    t,
    S: Sequence,
    s,
    p_max: int,
    membership: MembershipOracle,
) -> PropertyReport:
    """The two conditions of the conjugates-in-a-commuting-Z-conjugate
    property, at desk scale: [Lam, t^p Lam t^-p] = 1 for p <= p_max, and
    every element of the finite set S lies in s <Lam> s^-1 (equivalently
    s^-1 x s is in <Lam>, decided by the supplied membership oracle)."""
    desc = f"commuting-Z-conjugate container {Lam.label} (powers up to {p_max})"
    czc = check_czc(Lam, t, p_max) if not Lam.is_trivial() else PropertyReport.bounded(desc)
    if not czc.ok:
        return PropertyReport.failing(
            desc, czc.checks[-1], counterexample=czc.counterexample
        )
    checks = list(czc.checks)
    for x in S:
        if not membership(conj(s.inverse(), x)):
            return PropertyReport.failing(
                desc, "element not contained in the conjugate", counterexample=(x, s)
            )
    checks.append(f"all {len(list(S))} sample elements lie in s <Lam> s^-1")
    return PropertyReport.bounded(desc, checks)


def derive_czc_from_M(
    cert: WitnessCertificate,
    H: FgSubgroup,
    s,
    membership: MembershipOracle,
) -> Tuple[WitnessCertificate, PropertyReport]:
    """Transport a container certificate to a bounded commuting
    Z-conjugates certificate for any H inside s <Lam> s^-1: the witness
    is the s-conjugate of the container's t."""
    if cert.property != "M":
        raise ValueError("expected an M certificate")
    t0 = cert.payload["t"]
    p_max = cert.payload["p_max"]
    for h in H.generators:
        if not membership(conj(s.inverse(), h)):
            raise ValueError(f"generator {h!r} is not contained in s <Lam> s^-1")
    t = conj(s, t0)
    out = WitnessCertificate("CZC", H, {"t": t, "p_max": p_max}, dict(cert.bounds))
    return out, check_czc(H, t, p_max)


def product_cc_witness(
    c1: WitnessCertificate, c2: WitnessCertificate
) -> Tuple[WitnessCertificate, PropertyReport]:
    """Combine commuting-conjugates certificates of two factors into one
    for the product subgroup in the direct product, witnessed by the
    pair of conjugators."""
    for c in (c1, c2):
        if c.property != "CC":
            raise ValueError("both inputs must be CC certificates")
        if not check_cc(c.subject, c.payload["t"]).ok:
            raise ValueError(f"input certificate for {c.subject.label} fails")
    H = product_subgroup(
        f"{c1.subject.label} x {c2.subject.label}", c1.subject, c2.subject
    )
    t = H.context.pair(c1.payload["t"], c2.payload["t"])
    cert = WitnessCertificate("CC", H, {"t": t})
    return cert, check_cc(H, t)


# property tag -> verifier of (subject, payload); the keys are the
# valid tags of a WitnessCertificate
VERIFIERS: Dict[str, Callable[[FgSubgroup, dict], PropertyReport]] = {
    "CC": lambda H, p: check_cc(H, p["t"]),
    "CCC": lambda H, p: check_ccc(H, p["t"], p.get("n"), p.get("p_max", 10)),
    "CZC": lambda H, p: check_czc(H, p["t"], p["p_max"]),
    "CZNC": lambda H, p: check_cznc(H, p["t"], p["n"]),
    "M": lambda H, p: check_M(H, p["t"], p["S"], p["s"], p["p_max"], p["membership"]),
    "BINATE": lambda H, p: check_binate(H, p["f"], p["t"], p.get("relators")),
    "MITOTIC": lambda H, p: check_mitotic(H, p["t1"], p["t2"]),
    "DISSIPATOR": lambda H, p: check_dissipator(p["X"], p["t"], H, p["p_max"]),
}


def verify_certificate(cert: WitnessCertificate) -> PropertyReport:
    """Re-check any certificate against its defining conditions."""
    return VERIFIERS[cert.property](cert.subject, cert.payload)
