"""Certificate verifiers: one worked example per property."""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from displacement import checkers
from displacement.checkers import (
    GeneratorMap,
    WitnessCertificate,
    check_M,
    check_binate,
    check_cc,
    check_ccc,
    check_cznc,
    check_czc,
    check_dissipator,
    check_mitotic,
    verify_certificate,
)
from displacement.core import (
    ContextMismatchError,
    FgSubgroup,
    PropertyReport,
    commutes,
    conj,
    enumerate_subgroup,
)
from displacement.hnn import mitosis_presentation
from displacement.perms import Permutation, SymmetricGroupContext, symmetric_group
from displacement.plmaps import (
    IntervalSet,
    PLContext,
    PLHomeo,
    displaces,
    in_standard_f_copy,
    pl_support,
    thompson_generators,
    tower_gamma,
)
from displacement.wreath import TowerSpec, WreathElement, embed_subgroup, sym_zn_witness

F = Fraction
S3 = symmetric_group(3)


def s3_level1():
    tower = TowerSpec(S3, ("prefix", (2,)))
    H = embed_subgroup(S3, tower, 1)
    t = tower.context(1).shift_generator()
    return H, t


def test_check_cc():
    H, t = s3_level1()
    assert check_cc(H, t).ok
    # conjugating by a non-displacing element fails: t = some h in H
    bad = H.generators[0]
    rep = check_cc(H, bad)
    assert not rep.ok
    assert rep.counterexample is not None


def _counting_products(monkeypatch, cls):
    """Record each call of ``cls.__mul__``."""
    calls = []
    original = cls.__mul__

    def mul(self, other):
        calls.append(self)
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", mul)
    return calls


def test_check_cc_settles_a_displaced_conjugate_with_no_product(monkeypatch):
    """x -> x + 3 mod 6 moves supp H = {1, 2, 3} of Sym(3) in Sym(6) off
    itself, so CC passes on the support route; a t that fixes supp H
    goes to the products and fails on a generator pair."""
    H = FgSubgroup("S3 in Sym(6)", [g.extend(6) for g in S3.generators])
    t = _rotation(6, 3)
    calls = _counting_products(monkeypatch, Permutation)
    assert check_cc(H, t) == PropertyReport.passing(["[H, t H t^-1] = 1"])
    assert calls == []
    bad = H.generators[0]
    rep = check_cc(H, bad)
    assert calls
    assert rep.checks == ("[H, t^1 H t^-1] != 1",)
    h, k = rep.counterexample
    assert h in H.generators and k in [conj(bad, g) for g in H.generators]
    assert not commutes(h, k)


def test_check_cznc():
    H, t = s3_level1()
    rep = check_cznc(H, t, 2)
    assert rep.verdict == "pass"
    assert any("t^2 centralizes" in c for c in rep.checks)
    with pytest.raises(ValueError):
        check_cznc(H, t, 1)


def test_cznc_centralizer_failure_names_h_and_t_to_the_n():
    """The conjugates come from one another, but the counterexample of a
    failed centralizer condition is still (h, t^n)."""
    tower = TowerSpec(S3, ("prefix", (4,)))
    H = embed_subgroup(S3, tower, 1)
    t = tower.context(1).shift_generator()
    for n, power in ((2, t * t), (3, t * t * t)):
        rep = check_cznc(H, t, n)
        assert rep.checks[-1] == f"t^{n} does not centralize H"
        assert rep.counterexample == (H.generators[0], power)


def test_cznc_detects_bad_order():
    """Over top group Z/4 the embedded copy at coordinate 0 gives a
    genuine Z/4 witness, but n = 2 fails the centralizing condition, and
    a copy spread over coordinates {0, 2} fails at p = 2."""
    tower = TowerSpec(S3, ("prefix", (4,)))
    H = embed_subgroup(S3, tower, 1)
    ctx = tower.context(1)
    t = ctx.shift_generator()
    assert check_cznc(H, t, 4).ok
    rep2 = check_cznc(H, t, 2)
    assert not rep2.ok and "centralize" in rep2.checks[-1]
    a = Permutation.from_cycles(3, [(1, 2)])
    b = Permutation.from_cycles(3, [(1, 2, 3)])
    spread = FgSubgroup(
        "spread",
        [WreathElement(ctx, 0, [(0, a), (2, b)])],
        context=ctx,
    )
    rep4 = check_cznc(spread, t, 4)
    assert not rep4.ok and "t^2" in rep4.checks[-1]


def test_check_czc_is_bounded():
    gens, dissipators, intervals = tower_gamma(2)
    H = FgSubgroup("Gamma_1", gens[:2])
    t = dissipators[0]
    rep = check_czc(H, t, 10)
    assert rep.verdict == "bounded-pass"
    assert rep.ok
    x0, _ = thompson_generators()
    assert not check_czc(H, x0, 3).ok
    with pytest.raises(ValueError):
        check_czc(H, t, 0)


def test_check_ccc_dispatch():
    H, t = s3_level1()
    assert check_ccc(H, t, 2).verdict == "pass"
    gens, dissipators, _ = tower_gamma(2)
    G1 = FgSubgroup("Gamma_1", gens[:2])
    rep = check_ccc(G1, dissipators[0], None, p_max=5)
    assert rep.verdict == "bounded-pass"


def test_check_binate():
    pres = mitosis_presentation(S3)
    minus = pres.minus_subgroup()
    s = pres.stable_letter("s")
    d = pres.stable_letter("d")
    f = GeneratorMap(minus, [conj(s, h) for h in minus])
    rep = check_binate(minus, f, d)
    assert rep.ok
    assert any("assumed" in c for c in rep.checks)
    # the wrong conjugator fails the splitting condition
    assert not check_binate(minus, f, d * s).ok
    other = FgSubgroup("other", list(minus.generators), context=pres)
    with pytest.raises(ValueError):
        check_binate(other, f, d)


def test_check_mitotic():
    pres = mitosis_presentation(S3)
    minus = pres.minus_subgroup()
    s = pres.stable_letter("s")
    d = pres.stable_letter("d")
    rep = check_mitotic(minus, s, d * s)
    assert rep.ok
    assert not check_mitotic(minus, s, d).ok
    assert not check_mitotic(minus, d, d * s).ok


def test_check_mitotic_tests_commuting_conjugates_first():
    """In Sym(4), t2 h t2^-1 = h * t1 h t1^-1 holds on the one generator
    h, so the splitting condition alone would pass, but h and t1 h t1^-1
    do not commute."""
    h = Permutation.from_cycles(4, [(2, 3, 4)])
    t1 = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    t2 = Permutation.from_cycles(4, [(1, 4, 3, 2)])
    h1 = conj(t1, h)
    assert conj(t2, h) == h * h1 and not commutes(h, h1)
    rep = check_mitotic(FgSubgroup("H", [h]), t1, t2)
    assert rep.checks == ("[H, t1 H t1^-1] != 1",) and rep.counterexample == (h, h1)


def test_check_dissipator():
    gens, dissipators, intervals = tower_gamma(2)
    X = IntervalSet([intervals[0]])
    sample = FgSubgroup("Gamma_1", gens[:2])
    rep = check_dissipator(X, dissipators[0], sample, 5)
    assert rep.verdict == "bounded-pass"
    assert rep.checks == ("checked powers 1..5", _implied_diagonals(5))
    x0, _ = thompson_generators()
    assert not check_dissipator(X, x0, sample, 2).ok
    with pytest.raises(ValueError):
        # sample supported outside X
        check_dissipator(IntervalSet([(2, 3)]), dissipators[0], sample, 2)
    empty = FgSubgroup("E", [], context=PLContext())
    assert check_dissipator(X, dissipators[0], empty, 3).ok


def _implied_diagonals(p_max: int) -> str:
    return (
        f"so truncated diagonals commute with the sample up to depth {p_max}:"
        " t^q g t^-q is supported in t^q(X), off X"
    )


def _diagonals_by_products(X, t, sample, p_max):
    """The dissipator check as it tested its diagonals before they were
    stated: each truncated diagonal prod_{q<=p} t^q g t^-q multiplied
    out and tested against every sample generator."""
    for g in sample.generators:
        if not X.contains_set(pl_support(g)):
            raise ValueError(f"sample generator {g!r} not supported inside X")
    disp = displaces(t, X, p_max)
    if not disp.ok:
        return PropertyReport.failing("t fails to displace X", disp.counterexample)
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
                        f"truncated diagonal at depth {q} does not commute", (h, diag)
                    )
    checks.append(f"truncated diagonals commute with the sample up to depth {p_max}")
    return PropertyReport.bounded(checks)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_dissipator_diagonals_follow_from_displacement(depth):
    """Over every level X = I_i of the tower with its generators as the
    sample, every tower generator as t and p_max <= 6, the stated
    diagonals agree with the products: wherever t displaces X, every
    truncated diagonal commutes with the sample."""
    gens, _, intervals = tower_gamma(depth)
    verdicts = set()
    for i, interval in enumerate(intervals, start=1):
        X, sample = IntervalSet([interval]), FgSubgroup(f"Gamma_{i}", gens[: i + 1])
        for t in gens:
            for p_max in range(1, 7):
                rep = check_dissipator(X, t, sample, p_max)
                ref = _diagonals_by_products(X, t, sample, p_max)
                assert rep.verdict == ref.verdict
                if rep.ok:
                    assert ref.checks[0] == rep.checks[0] == f"checked powers 1..{p_max}"
                    assert rep.checks[1] == _implied_diagonals(p_max)
                else:
                    assert rep == ref
                verdicts.add(rep.verdict)
    assert verdicts == {"bounded-pass", "fail"}


def test_check_M_with_f_copy():
    gens, dissipators, intervals = tower_gamma(2)
    Lam = FgSubgroup("Gamma_1", gens[:2])
    t = dissipators[0]
    s = PLContext().identity
    S = [gens[0], gens[1], gens[0] * gens[1].inverse()]
    rep = check_M(Lam, t, S, s, 5, in_standard_f_copy)
    assert rep.verdict == "bounded-pass"
    # an element supported outside (0, 1) is not in the copy
    outside = dissipators[0]
    rep2 = check_M(Lam, t, [outside], s, 5, in_standard_f_copy)
    assert not rep2.ok


def test_check_M_finite():
    a = Permutation.from_cycles(3, [(1, 2)])
    b = Permutation.from_cycles(3, [(1, 2, 3)])
    Lam = FgSubgroup("A", [a])
    oracle = set(enumerate_subgroup([a])).__contains__
    e = S3.context.identity
    rep = check_M(Lam, e, [a, a * a], e, 3, oracle)
    assert rep.ok  # abelian Lam commutes with its own (trivial) conjugates
    # b a is not in <a> = {1, a}
    rep2 = check_M(Lam, e, [b * a], e, 3, oracle)
    assert not rep2.ok
    # but conjugating by s = b pulls b a b^-1-type elements in
    rep3 = check_M(Lam, e, [conj(b, a)], b, 3, oracle)
    assert rep3.ok


def test_check_M_on_a_trivial_lambda_states_the_czc_line():
    gens, dissipators, _ = tower_gamma(2)
    trivial = FgSubgroup("1", [], context=PLContext())
    rep = check_M(trivial, dissipators[0], [], PLContext().identity, 3, in_standard_f_copy)
    assert rep == PropertyReport.bounded(
        ["[H, t^p H t^-p] = 1 for p = 1..3", "all 0 sample elements lie in s <Lam> s^-1"]
    )


def test_certificate_tag_validation():
    H, t = s3_level1()
    with pytest.raises(ValueError):
        WitnessCertificate("NOPE", H, {"t": t})


def test_verify_certificate_dispatch():
    H, t = s3_level1()
    pres = mitosis_presentation(S3)
    minus = pres.minus_subgroup()
    s = pres.stable_letter("s")
    d = pres.stable_letter("d")
    gens, dissipators, intervals = tower_gamma(2)
    G1 = FgSubgroup("Gamma_1", gens[:2])
    certs = [
        WitnessCertificate("CC", H, {"t": t}),
        WitnessCertificate("CZNC", H, {"t": t, "n": 2}),
        WitnessCertificate("CCC", H, {"t": t, "n": 2}),
        WitnessCertificate("CZC", G1, {"t": dissipators[0], "p_max": 4}),
        WitnessCertificate(
            "BINATE",
            minus,
            {"f": GeneratorMap(minus, [conj(s, h) for h in minus]), "t": d},
        ),
        WitnessCertificate("MITOTIC", minus, {"t1": s, "t2": d * s}),
        WitnessCertificate(
            "DISSIPATOR",
            G1,
            {"X": IntervalSet([intervals[0]]), "t": dissipators[0], "p_max": 3},
        ),
        WitnessCertificate(
            "M",
            G1,
            {
                "t": dissipators[0],
                "S": [gens[0]],
                "s": PLContext().identity,
                "p_max": 3,
                "membership": in_standard_f_copy,
            },
        ),
    ]
    for cert in certs:
        assert verify_certificate(cert).ok


def test_reports_are_reproducible():
    H, t = s3_level1()
    r1 = check_cc(H, t)
    r2 = check_cc(H, t)
    assert r1 == r2


def test_generator_map_validation():
    H, t = s3_level1()
    with pytest.raises(ValueError):
        GeneratorMap(H, [t])  # wrong number of images
    m = GeneratorMap(H, H.generators)
    assert m.image_subgroup().generators == H.generators


def _inversions_of(monkeypatch, element):
    """Record each call of ``element.inverse()``, on that very object."""
    calls = []
    cls = type(element)
    original = cls.inverse

    def inverse(self):
        if self is element:
            calls.append(self)
        return original(self)

    monkeypatch.setattr(cls, "inverse", inverse)
    return calls


def _m_certificate():
    gens, dissipators, _ = tower_gamma(2)
    Lam = FgSubgroup("Gamma_1", gens[:2])
    payload = {
        "t": dissipators[0],
        "S": [],
        "s": PLContext().identity,
        "p_max": 3,
        "membership": in_standard_f_copy,
    }
    return WitnessCertificate("M", Lam, payload)


def test_each_conjugator_is_inverted_once_per_call(monkeypatch):
    pres = mitosis_presentation(S3)
    minus = pres.minus_subgroup()
    s, d = pres.stable_letter("s"), pres.stable_letter("d")
    f = GeneratorMap(minus, [conj(s, h) for h in minus])
    calls = _inversions_of(monkeypatch, d)
    assert check_binate(minus, f, d).ok
    assert len(calls) == 1

    cert = _m_certificate()
    x0, _ = thompson_generators()
    Lam = cert.subject
    S = [conj(x0, g) for g in Lam.generators]
    calls = _inversions_of(monkeypatch, x0)
    assert check_M(Lam, cert.payload["t"], S, x0, 3, in_standard_f_copy).ok
    assert len(calls) == 1


def test_conjugators_from_another_group_are_rejected():
    pres = mitosis_presentation(S3)
    minus = pres.minus_subgroup()
    s = pres.stable_letter("s")
    f = GeneratorMap(minus, [conj(s, h) for h in minus])
    perm = Permutation.from_cycles(3, [(1, 2)])
    with pytest.raises(ContextMismatchError):
        check_binate(minus, f, perm)
    cert = _m_certificate()
    Lam = cert.subject
    with pytest.raises(ContextMismatchError):
        check_M(Lam, cert.payload["t"], list(Lam.generators), perm, 3, in_standard_f_copy)
    # the support route checks the context before it pushes any point
    with pytest.raises(ContextMismatchError):
        check_czc(S3, Permutation.from_cycles(6, [(1, 4), (2, 5), (3, 6)]), 1)


# -- the support route against the product route --------------------------


def _both_routes(H, t, power):
    """check_czc(H, t, power) and check_cznc(H, t, power + 1), each on
    the support route and on the product route forced by emptying the
    route table."""
    def run():
        return check_czc(H, t, power), check_cznc(H, t, power + 1)

    support = run()
    with patch.dict(checkers._SUPPORT_ROUTES, clear=True):
        return support, run()


def _rotation(degree: int, k: int) -> Permutation:
    """x -> x + k mod degree, on 0-based points."""
    return Permutation(SymmetricGroupContext(degree), [(x + k) % degree for x in range(degree)])


@st.composite
def moving_on(draw, degree: int):
    """A permutation of {1..degree} that moves only a drawn set of points."""
    points = draw(st.lists(st.integers(0, degree - 1), min_size=2, max_size=degree,
                           unique=True))
    images = list(range(degree))
    for x, y in zip(points, draw(st.permutations(points))):
        images[x] = y
    return Permutation(SymmetricGroupContext(degree), images)


@st.composite
def permutation_cases(draw):
    """H with one to three generators of small support, and t either any
    permutation or a rotation, which displaces a small support."""
    degree = draw(st.integers(2, 8))
    gens = draw(st.lists(moving_on(degree), min_size=1, max_size=3))
    if draw(st.booleans()):
        t = _rotation(degree, draw(st.integers(1, degree - 1)))
    else:
        t = Permutation(SymmetricGroupContext(degree), draw(st.permutations(range(degree))))
    return FgSubgroup("H", gens), t, draw(st.integers(1, 4))


def _bump(l, r, up: bool) -> PLHomeo:
    """The one-bump map with support (l, r) that moves the midpoint up or down."""
    m = (l + r) / 2
    return PLHomeo([(l, l), (m, (l + 3 * r) / 4 if up else (3 * l + r) / 4), (r, r)])


HALVES = [F(i, 2) for i in range(2, 11)]


@st.composite
def pl_cases(draw):
    """H generated by one to three bumps with supports inside (1, 5), and
    t either a bump or a translation by c on [1, 5], so that t^p(supp H)
    misses, touches or meets supp H."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        l, r = sorted(draw(st.lists(st.sampled_from(HALVES), min_size=2, max_size=2,
                                    unique=True)))
        gens.append(_bump(l, r, draw(st.booleans())))
    if draw(st.booleans()):
        c = draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(5, 2)]))
        t = PLHomeo([(0, 0), (1, 1 + c), (5, 5 + c), (8, 8)])
    else:
        l, r = sorted(draw(st.lists(st.sampled_from([F(i, 2) for i in range(13)]),
                                    min_size=2, max_size=2, unique=True)))
        t = _bump(l, r, draw(st.booleans()))
    return FgSubgroup("H", gens), t, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(permutation_cases())
# supp of the first generator alone is displaced at p = 1, supp H is not
@example((FgSubgroup("H", [Permutation.from_cycles(4, [(1, 2)]),
                           Permutation.from_cycles(4, [(2, 3)])]),
          Permutation.from_cycles(4, [(1, 3), (2, 4)]), 1))
# t displaces supp H at p = 1 only, and t^2 = 1
@example((FgSubgroup("S3 in Sym(6)", [g.extend(6) for g in S3.generators]),
          _rotation(6, 3), 2))
def test_support_route_agrees_with_products_on_permutations(case):
    H, t, power = case
    support, products = _both_routes(H, t, power)
    assert support == products


@settings(max_examples=200, deadline=None)
@given(pl_cases())
# t(supp H) touches supp H: (1, 2) goes to (2, 3)
@example((FgSubgroup("H", [_bump(F(1), F(2), True)]),
          PLHomeo([(0, 0), (1, 2), (5, 6), (8, 8)]), 3))
def test_support_route_agrees_with_products_on_pl_maps(case):
    H, t, power = case
    support, products = _both_routes(H, t, power)
    assert support == products


def test_sym_zn_certificate_is_settled_without_products(monkeypatch):
    """Every power of the sym-zn witness displaces supp H, so no
    generator pair is multiplied out and t^-1 is never built."""
    cert = sym_zn_witness(S3, 50)
    t = cert.payload["t"]
    calls = _inversions_of(monkeypatch, t)
    monkeypatch.setattr(checkers, "subgroups_commute", lambda H, K: pytest.fail("products"))
    rep = verify_certificate(cert)
    assert rep.verdict == "pass" and len(rep.checks) == 50
    assert calls == []


def test_cznc_on_the_powering_path_names_h_and_t_to_the_n():
    """Every power is displaced, but t^n moves supp H: the counterexample
    is (h, t^n), with t^n built by square-and-multiply."""
    H = FgSubgroup("S3 in Sym(30)", [g.extend(30) for g in S3.generators])
    t = _rotation(30, 3)
    for n in (2, 4, 5, 9):
        rep = check_cznc(H, t, n)
        assert rep.checks[-1] == f"t^{n} does not centralize H"
        power = t
        for _ in range(n - 1):
            power = power * t
        assert rep.counterexample == (H.generators[0], power)
