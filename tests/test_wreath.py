"""Wreath towers: multiplication oracle, enumeration, witnesses."""

import random
from math import gcd

import pytest

from displacement.checkers import check_cznc, check_czc, verify_certificate
from displacement.core import (
    BudgetExceededError,
    ContextMismatchError,
    FgSubgroup,
    element_order,
)
from displacement.matrices import RationalMatrix
from displacement.perms import Permutation, symmetric_group
from displacement.serialize import to_jsonable
from displacement.suites import CHECK_TYPES, DEFAULT_BOUNDS
from displacement.wreath import (
    TowerSpec,
    WreathElement,
    _iroot,
    base_conjugacy_representatives,
    base_normalizes,
    brute_search_zp_witness,
    embed_level,
    embed_subgroup,
    embed_to_level,
    enumerate_level,
    level_order,
    realize_permutation,
    search_candidates,
    sym_zn_witness,
    zn_witness,
)


def s3_tower(orders):
    return TowerSpec(symmetric_group(3), ("prefix", tuple(orders)))


def random_element(rng, tower, level):
    ctx = tower.context(level)
    n = ctx.top_order
    base = tower.base_elements()

    def pick(lv):
        if lv == 0:
            return rng.choice(base)
        c = tower.context(lv)
        support = [(i, pick(lv - 1)) for i in range(c.top_order) if rng.random() < 0.7]
        return WreathElement(c, rng.randrange(c.top_order), support)

    return pick(level)


def test_rule_variants():
    assert s3_tower([2, 5]).n(2) == 5
    with pytest.raises(ValueError):
        s3_tower([2]).n(2)
    with pytest.raises(ValueError):
        TowerSpec(symmetric_group(3), ("constant", 5)).n(1)


def test_mul_against_permutation_realization():
    """Oracle: the imprimitive realization is a homomorphism."""
    rng = random.Random(7)
    for level in (1, 2):
        tower = s3_tower([2, 2])
        for _ in range(250):
            a = random_element(rng, tower, level)
            b = random_element(rng, tower, level)
            assert realize_permutation(a * b) == realize_permutation(
                a
            ) * realize_permutation(b)


def test_inverse_and_identity():
    rng = random.Random(9)
    tower = s3_tower([3])
    for _ in range(50):
        a = random_element(rng, tower, 1)
        assert (a * a.inverse()).is_identity()
        assert (a * tower.context(1).identity) == a


def test_mul_worked_example():
    tower = s3_tower([2])
    ctx = tower.context(1)
    a = Permutation.from_cycles(3, [(1, 2)])
    b = Permutation.from_cycles(3, [(1, 2, 3)])
    x = WreathElement(ctx, 1, [(0, a)])
    y = WreathElement(ctx, 1, [(0, b)])
    z = x * y
    assert z.shift == 0
    assert z.value_at(0) == a and z.value_at(1) == b


def test_order_formula():
    tower = s3_tower([2, 2])
    assert level_order(tower, 1) == 6**2 * 2
    assert level_order(tower, 2) == 72**2 * 2
    count = sum(1 for _ in enumerate_level(tower, 1))
    assert count == 72
    t3 = s3_tower([3])
    assert sum(1 for _ in enumerate_level(t3, 1)) == 648


def test_embed_is_injective_homomorphism():
    rng = random.Random(13)
    tower = s3_tower([2, 3])
    ctx = tower.context(1)
    for _ in range(50):
        a = rng.choice(tower.base_elements())
        b = rng.choice(tower.base_elements())
        assert embed_level(a * b, ctx) == embed_level(a, ctx) * embed_level(b, ctx)
        if not a.is_identity():
            assert not embed_level(a, ctx).is_identity()
    two_up = embed_to_level(Permutation.from_cycles(3, [(1, 2)]), tower, 2)
    assert realize_permutation(two_up)(1) == 2


def test_embed_rejects_wrong_context():
    tower = s3_tower([2])
    with pytest.raises(ContextMismatchError):
        embed_level(Permutation.from_cycles(4, [(1, 2)]), tower.context(1))


def test_zn_witness_levels():
    tower = s3_tower([2, 2, 2, 2])
    for level in range(1, 5):
        cert = zn_witness(tower, tower.base, level, 2)
        assert verify_certificate(cert).ok
        assert cert.payload["t"].shift == 1


def test_zn_witness_with_composite_top():
    tower = s3_tower([4])
    cert = zn_witness(tower, tower.base, 1, 2)
    assert verify_certificate(cert).ok
    assert cert.payload["t"].shift == 2  # k = n/p = 2
    with pytest.raises(ValueError):
        zn_witness(tower, tower.base, 1, 3)  # 3 does not divide 4


def test_brute_search():
    tower = s3_tower([2])
    H = embed_subgroup(symmetric_group(3), tower, 1)
    found = brute_search_zp_witness(tower, 1, H, 2)
    assert found is not None
    assert found.shift == 1

    t3 = s3_tower([3])
    H3 = embed_subgroup(symmetric_group(3), t3, 1)
    assert brute_search_zp_witness(t3, 1, H3, 2) is None

    abelian = FgSubgroup("A", [Permutation.from_cycles(3, [(1, 2)])])
    HA = embed_subgroup(abelian, tower, 1)
    assert brute_search_zp_witness(tower, 1, HA, 2).is_identity()


def test_budget_enforced():
    tower = s3_tower([2, 2, 2])
    with pytest.raises(BudgetExceededError):
        level_order(tower, 3, budget=10**6)


def test_budget_is_checked_before_the_base_is_enumerated():
    """Sym(6) wr Z/2 has 2 * 720^2 elements, so under budget 1000 the
    base group may hold at most isqrt(1000 // 2) = 22 elements, and its
    enumeration stops there."""
    tower = TowerSpec(symmetric_group(6), ("prefix", (2,)))
    with pytest.raises(BudgetExceededError, match="level 1 order exceeds budget 1000"):
        level_order(tower, 1, budget=1000)
    assert tower._base_elems is None


def test_integer_root():
    for k in range(2, 6):
        for x in range(3000):
            r = _iroot(x, k)
            assert r**k <= x < (r + 1) ** k


def test_torsion_obstruction():
    """A conjugator of finite order p fails the Z-conjugates conditions
    for a non-abelian H at p = ord(t), where t^p H t^-p is H itself."""
    t3 = s3_tower([3])
    H = embed_subgroup(symmetric_group(3), t3, 1)
    t = t3.context(1).shift_generator()
    assert element_order(t) == 3
    rep = check_czc(H, t, 3)
    assert rep.verdict == "fail" and rep.checks[-1] == "[H, t^3 H t^-3] != 1"
    assert not check_czc(H, t3.context(1).identity, 1).ok
    abelian = embed_subgroup(
        FgSubgroup("A", [Permutation.from_cycles(3, [(1, 2)])]), t3, 1
    )
    assert check_czc(abelian, t, 3).verdict == "bounded-pass"


def test_sym_zn_witness():
    H = symmetric_group(3)
    for n in (2, 3, 4):
        assert verify_certificate(sym_zn_witness(H, n)).ok
    cert = sym_zn_witness(H, 3)
    t = cert.payload["t"]
    assert t.cycles() == ((1, 4, 7), (2, 5, 8), (3, 6, 9))
    assert element_order(t) == 3


def test_constructor_rejects_values_outside_the_level_below():
    tower = s3_tower([2, 2])
    ctx1, ctx2 = tower.context(1), tower.context(2)
    with pytest.raises(ContextMismatchError):
        WreathElement(ctx1, 0, [(0, Permutation.from_cycles(4, [(1, 2)]))])
    with pytest.raises(ContextMismatchError):
        WreathElement(ctx1, 0, [(0, RationalMatrix([[1, 1], [0, 1]]))])
    with pytest.raises(ContextMismatchError):
        WreathElement(ctx1, 0, [(1, symmetric_group(4).context.identity)])
    with pytest.raises(ContextMismatchError):
        WreathElement(ctx2, 0, [(0, Permutation.from_cycles(3, [(1, 2)]))])
    with pytest.raises(ContextMismatchError):
        embed_level(ctx2.shift_generator(), ctx1)
    a = Permutation.from_cycles(3, [(1, 2)])
    with pytest.raises(ValueError):
        WreathElement(ctx1, 0, [(0, a), (2, a)])  # 2 = 0 mod 2
    assert WreathElement(ctx2, 0, [(1, ctx1.shift_generator())]).value_at(1) == (
        ctx1.shift_generator()
    )


def reference_element(ctx, shift, values):
    """(shift, support) in canonical form, from a map index -> value."""
    n = ctx.top_order
    support = sorted((m % n, v) for m, v in values.items() if not v.is_identity())
    return shift % n, tuple(support)


def reference_mul(a, b):
    """(f, k)(g, l) = (m -> f(m) * g(m - k), k + l), point by point."""
    k, n = a.shift, a.context.top_order
    indices = {i % n for i, _ in a.support} | {(i + k) % n for i, _ in b.support}
    values = {m: a.value_at(m) * b.value_at(m - k) for m in indices}
    return reference_element(a.context, k + b.shift, values)


def reference_inverse(a):
    """(f, k)^-1 = (m -> f(m + k)^-1, -k), point by point."""
    k, n = a.shift, a.context.top_order
    indices = {(i - k) % n for i, _ in a.support}
    values = {m: a.value_at(m + k).inverse() for m in indices}
    return reference_element(a.context, -k, values)


def assert_canonical(w):
    n = w.context.top_order
    indices = [i for i, _ in w.support]
    assert indices == sorted(set(indices))
    assert not any(v.is_identity() for _, v in w.support)
    assert 0 <= w.shift < n and all(0 <= i < n for i in indices)
    assert WreathElement(w.context, w.shift, w.support) == w


def random_over(rng, ctx, pick_value, spread=3):
    """A random element of ctx with values drawn by pick_value, distinct
    residues as indices, each unreduced by up to one multiple of n, and
    a shift, unreduced, in -spread..spread."""
    n = ctx.top_order
    residues = rng.sample(range(n), rng.randrange(n + 1))
    support = [(i + n * rng.randrange(-1, 2), pick_value()) for i in residues]
    return WreathElement(ctx, rng.randrange(-spread, spread + 1), support)


def test_mul_and_inverse_against_pointwise_formula():
    """Oracle independent of the permutation realization: products and
    inverses at both levels of a Sym(3) tower against the pointwise
    formula, from unreduced indices and shifts."""
    rng = random.Random(17)
    tower = s3_tower([2, 3])
    s3 = tower.base_elements()
    ctx1, ctx2 = tower.context(1), tower.context(2)

    def level1():
        return random_over(rng, ctx1, lambda: rng.choice(s3))

    for ctx, pick_value in [(ctx1, lambda: rng.choice(s3)), (ctx2, level1)]:
        for _ in range(150):
            x = random_over(rng, ctx, pick_value)
            y = random_over(rng, ctx, pick_value)
            for w, expected in [
                (x * y, reference_mul(x, y)),
                (x.inverse(), reference_inverse(x)),
                (x * x.inverse(), (0, ())),
                (x.inverse() * x, (0, ())),
            ]:
                assert (w.shift, w.support) == expected
                assert_canonical(w)


# -- the level-1 searches over base-group conjugacy orbits ----------------


def sym_tower(degree, orders):
    return TowerSpec(symmetric_group(degree), ("prefix", tuple(orders)))


def raw_orbit_minima(tower):
    """The least element, in canonical order, of each orbit of level 1
    under conjugation by the base group, found by breadth-first search
    with the generators of the base group: each generator of G at each
    coordinate."""
    ctx = tower.context(1)
    position = {w: i for i, w in enumerate(enumerate_level(tower, 1))}
    gens = [
        WreathElement(ctx, 0, [(i, s)])
        for i in range(ctx.top_order)
        for s in tower.base.generators
    ]
    gens = [(b, b.inverse()) for b in gens]
    seen = set()
    minima = []
    for w in position:
        if w in seen:
            continue
        seen.add(w)
        orbit = [w]
        for x in orbit:
            for b, b_inv in gens:
                y = b * x * b_inv
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        minima.append(min(orbit, key=position.__getitem__))
    return sorted(minima, key=position.__getitem__)


def class_count(degree):
    elems = list(enumerate_level(sym_tower(degree, [2]), 0))
    return len({frozenset(x * g * x.inverse() for x in elems) for g in elems})


@pytest.mark.parametrize("degree, n", [(3, 2), (3, 3), (3, 4), (4, 2)])
def test_orbit_representatives_are_the_minima_of_a_raw_partition(degree, n):
    tower = sym_tower(degree, [n])
    assert base_conjugacy_representatives(tower) == raw_orbit_minima(tower)


@pytest.mark.parametrize(
    "degree, n", [(d, n) for d in (2, 3, 4) for n in range(2, 6) if (d, n) != (4, 5)]
)
def test_orbit_count_closed_form(degree, n):
    c = class_count(degree)
    expected = sum(c ** gcd(k, n) for k in range(n))
    assert len(base_conjugacy_representatives(sym_tower(degree, [n]))) == expected


def test_orbit_representatives_keep_the_budget():
    with pytest.raises(BudgetExceededError):
        base_conjugacy_representatives(s3_tower([3]), budget=647)
    assert len(base_conjugacy_representatives(s3_tower([3]), budget=648)) == 33


def first_raw(tower, passes):
    return next((t for t in enumerate_level(tower, 1) if passes(t)), None)


SEARCH_CASES = [(d, n, p) for d in (2, 3) for n in (2, 3, 4) for p in (2, 3, 4)]


@pytest.mark.parametrize("degree, n, p", SEARCH_CASES)
def test_brute_search_agrees_with_the_raw_level(degree, n, p):
    tower = sym_tower(degree, [n])
    H = embed_subgroup(tower.base, tower, 1)
    assert base_normalizes(tower, 1, H)
    expected = first_raw(tower, lambda t: check_cznc(H, t, p).ok)
    assert brute_search_zp_witness(tower, 1, H, p) == expected


@pytest.mark.parametrize("degree, n", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2)])
def test_torsion_search_agrees_with_the_raw_level(degree, n):
    tower = sym_tower(degree, [n])
    H = embed_subgroup(tower.base, tower, 1)
    expected = first_raw(tower, lambda t: check_czc(H, t, element_order(t)).ok)
    params = {"degree": degree, "orders": [n], "level": 1}
    rep = CHECK_TYPES["wreath-torsion-exhaustive"](DEFAULT_BOUNDS, None, **params)
    assert rep.verdict == ("pass" if expected is None else "fail")
    # the runner builds its own tower, so compare the serialized forms
    assert to_jsonable(rep.counterexample) == to_jsonable(expected)
    if expected is None:
        orbits = len(base_conjugacy_representatives(tower))
        assert rep.checks == (
            f"all {level_order(tower, 1)} elements fail the Z-conjugate conditions"
            f" at p <= ord(t), checked on {orbits} base-group conjugacy orbits",
        )


def test_search_walks_the_whole_level_unless_the_base_normalizes_h():
    """A point stabilizer Sym(3) in Sym(4) is not normal, so the base
    group does not normalize it and the search tests every element; it
    finds no Z/3 witness in Sym(4) wr Z/2."""
    tower = sym_tower(4, [2])
    stabilizer = FgSubgroup(
        "Sym(3) in Sym(4)",
        [Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(1, 2, 3)])],
    )
    H = embed_subgroup(stabilizer, tower, 1)
    assert not base_normalizes(tower, 1, H)
    assert sum(1 for _ in search_candidates(tower, 1, H)) == level_order(tower, 1)
    assert brute_search_zp_witness(tower, 1, H, 3) is None

    full = embed_subgroup(tower.base, tower, 1)
    assert sum(1 for _ in search_candidates(tower, 1, full)) == 30


def test_base_normalizes():
    tower = s3_tower([3, 2])
    a3 = FgSubgroup("A3", [Permutation.from_cycles(3, [(1, 2, 3)])])
    assert base_normalizes(tower, 1, embed_subgroup(a3, tower, 1))
    transposition = FgSubgroup("C2", [Permutation.from_cycles(3, [(1, 2)])])
    assert not base_normalizes(tower, 1, embed_subgroup(transposition, tower, 1))
    s3 = tower.base
    assert not base_normalizes(tower, 2, embed_subgroup(s3, tower, 2))
    ctx = tower.context(1)
    off_zero = FgSubgroup("S3@1", [WreathElement(ctx, 0, [(1, g)]) for g in s3.generators])
    assert not base_normalizes(tower, 1, off_zero)
    level2 = s3_tower([2, 2])
    assert sum(1 for _ in search_candidates(
        level2, 2, embed_subgroup(level2.base, level2, 2))) == level_order(level2, 2)
