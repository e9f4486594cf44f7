"""Wreath towers: multiplication oracle, enumeration, witnesses."""

import random

import pytest

from displacement.checkers import check_czc, verify_certificate
from displacement.core import (
    BudgetExceededError,
    ContextMismatchError,
    FgSubgroup,
    commutator,
    element_order,
    enumerate_subgroup,
)
from displacement.freewords import FreeGroupContext, free_group
from displacement.perms import Permutation, symmetric_group
from displacement.wreath import (
    TowerSpec,
    WreathElement,
    ZWreathContext,
    brute_search_zp_witness,
    embed_level,
    embed_subgroup,
    embed_to_level,
    enumerate_level,
    level_order,
    realize_permutation,
    sym_zn_witness,
    torsion_obstruction_check,
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
    base = symmetric_group(3)
    assert TowerSpec(base, ("constant", 5)).n(3) == 5
    assert TowerSpec(base, ("primes",)).n(4) == 7
    pp = TowerSpec(base, ("prime-products", (2, 3, 5)))
    assert pp.n(1) == 2 and pp.n(2) == 6 and pp.n(3) == 30
    with pytest.raises(ValueError):
        s3_tower([2]).n(2)


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
        cert, rep = zn_witness(tower, tower.base, level, 2)
        assert rep.ok
        assert verify_certificate(cert).ok
        assert cert.payload["t"].shift == 1


def test_zn_witness_with_composite_top():
    tower = s3_tower([4])
    cert, rep = zn_witness(tower, tower.base, 1, 2)
    assert rep.ok
    assert cert.payload["t"].shift == 2  # k = n/p = 2
    with pytest.raises(ValueError):
        zn_witness(tower, tower.base, 1, 3)  # 3 does not divide 4


def test_zn_witness_free_base():
    """The witness construction needs no finite base: free-group bases
    check the same generator-level conditions."""
    tower = TowerSpec(free_group(2), ("prefix", (2,)))
    cert, rep = zn_witness(tower, tower.base, 1, 2)
    assert rep.ok


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


def test_torsion_obstruction():
    t3 = s3_tower([3])
    H = embed_subgroup(symmetric_group(3), t3, 1)
    t = t3.context(1).shift_generator()
    assert element_order(t) == 3
    assert torsion_obstruction_check(H, t).ok
    assert torsion_obstruction_check(H, t3.context(1).identity).ok
    abelian = embed_subgroup(
        FgSubgroup("A", [Permutation.from_cycles(3, [(1, 2)])]), t3, 1
    )
    assert torsion_obstruction_check(abelian, t).verdict == "not-applicable"


def test_sym_zn_witness():
    H = symmetric_group(3)
    for n in (2, 3, 4):
        cert, rep = sym_zn_witness(H, n)
        assert rep.ok
        assert verify_certificate(cert).ok
    cert, rep = sym_zn_witness(H, 3)
    t = cert.payload["t"]
    assert t.cycles() == ((1, 4, 7), (2, 5, 8), (3, 6, 9))
    assert element_order(t) == 3


def test_z_top_wreath():
    ctx = ZWreathContext(symmetric_group(3).context)
    t = ctx.shift_generator()
    a = embed_level(Permutation.from_cycles(3, [(1, 2)]), ctx)
    # shifts accumulate without wrapping
    p = t
    for _ in range(9):
        p = p * t
    assert p.shift == 10
    moved = p * a * p.inverse()
    assert moved.support[0][0] == 10
    assert commutator(a, moved).is_identity()
    with pytest.raises(ValueError):
        realize_permutation(t)


def test_constructor_rejects_values_outside_the_level_below():
    tower = s3_tower([2, 2])
    ctx1, ctx2 = tower.context(1), tower.context(2)
    with pytest.raises(ContextMismatchError):
        WreathElement(ctx1, 0, [(0, Permutation.from_cycles(4, [(1, 2)]))])
    with pytest.raises(ContextMismatchError):
        WreathElement(ctx1, 0, [(0, FreeGroupContext(2).generator(1))])
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
    reduce = (lambda x: x) if n is None else (lambda x: x % n)
    support = sorted(
        (reduce(m), v) for m, v in values.items() if not v.is_identity()
    )
    return reduce(shift), tuple(support)


def reference_mul(a, b):
    """(f, k)(g, l) = (m -> f(m) * g(m - k), k + l), point by point."""
    k, n = a.shift, a.context.top_order
    indices = {i for i, _ in a.support} | {i + k for i, _ in b.support}
    if n is not None:
        indices = {m % n for m in indices}
    values = {m: a.value_at(m) * b.value_at(m - k) for m in indices}
    return reference_element(a.context, k + b.shift, values)


def reference_inverse(a):
    """(f, k)^-1 = (m -> f(m + k)^-1, -k), point by point."""
    k, n = a.shift, a.context.top_order
    indices = {i - k for i, _ in a.support}
    if n is not None:
        indices = {m % n for m in indices}
    values = {m: a.value_at(m + k).inverse() for m in indices}
    return reference_element(a.context, -k, values)


def assert_canonical(w):
    n = w.context.top_order
    indices = [i for i, _ in w.support]
    assert indices == sorted(set(indices))
    assert not any(v.is_identity() for _, v in w.support)
    if n is not None:
        assert 0 <= w.shift < n and all(0 <= i < n for i in indices)
    assert WreathElement(w.context, w.shift, w.support) == w


def random_over(rng, ctx, pick_value, spread=3):
    """A random element of ctx with values drawn by pick_value, distinct
    indices and a shift, unreduced, in -spread..spread."""
    n = ctx.top_order
    if n is None:
        indices = rng.sample(range(-spread, spread + 1), rng.randrange(4))
    else:
        residues = rng.sample(range(n), rng.randrange(n + 1))
        indices = [i + n * rng.randrange(-1, 2) for i in residues]
    support = [(i, pick_value()) for i in indices]
    return WreathElement(ctx, rng.randrange(-spread, spread + 1), support)


def test_mul_and_inverse_against_pointwise_formula():
    """Oracle for the contexts the permutation realization cannot check:
    a Z top and a free-group base."""
    rng = random.Random(17)
    F = FreeGroupContext(2)
    a, b = F.generator(1), F.generator(2)
    letters = [a, b, a.inverse(), b.inverse(), a * b]
    s3 = s3_tower([2]).base_elements()
    free_tower = TowerSpec(free_group(2), ("prefix", (2, 3)))
    ctx1, ctx2 = free_tower.context(1), free_tower.context(2)

    def free_level1():
        return random_over(rng, ctx1, lambda: rng.choice(letters))

    cases = [
        (ZWreathContext(symmetric_group(3).context), lambda: rng.choice(s3)),
        (ZWreathContext(F), lambda: rng.choice(letters)),
        (ctx1, lambda: rng.choice(letters)),
        (ctx2, free_level1),
    ]
    for ctx, pick_value in cases:
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
