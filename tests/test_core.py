"""Group algebra contract, checked over the permutation realization and
against brute-force subgroup enumeration."""

import itertools

import pytest
from hypothesis import given, strategies as st

from displacement.core import (
    ContextMismatchError,
    FgSubgroup,
    commutator,
    conj,
    element_order,
    enumerate_subgroup,
    subgroups_commute,
)
from displacement.perms import Permutation, SymmetricGroupContext, symmetric_group


def perm_strategy(degree=4):
    ctx = SymmetricGroupContext(degree)
    return st.permutations(range(degree)).map(lambda im: Permutation(ctx, im))


@given(perm_strategy(), perm_strategy(), perm_strategy())
def test_group_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    e = a.context.identity
    assert a * e == a and e * a == a
    assert (a * a.inverse()).is_identity()


@given(perm_strategy(), perm_strategy(), perm_strategy())
def test_conj_is_homomorphism_in_g(t, a, b):
    assert conj(t, a * b) == conj(t, a) * conj(t, b)


@given(perm_strategy(), perm_strategy(), perm_strategy())
def test_conj_composes(s, t, g):
    assert conj(s * t, g) == conj(s, conj(t, g))


@given(perm_strategy(), perm_strategy())
def test_commutator_triviality(a, b):
    assert commutator(a, b).is_identity() == (a * b == b * a)


def test_commutator_self_and_identity():
    a = Permutation.from_cycles(3, [(1, 2)])
    e = a.context.identity
    assert commutator(a, a).is_identity()
    assert commutator(a, e).is_identity()


def test_commutator_of_transpositions_is_3_cycle():
    a = Permutation.from_cycles(3, [(1, 2)])
    b = Permutation.from_cycles(3, [(1, 3)])
    c = commutator(a, b)
    assert len(c.cycles()) == 1 and len(c.cycles()[0]) == 3


def test_context_mismatch_rejected():
    a = Permutation.from_cycles(3, [(1, 2)])
    b = Permutation.from_cycles(4, [(1, 2)])
    with pytest.raises(ContextMismatchError):
        a * b
    with pytest.raises(ContextMismatchError):
        conj(a, b)


def test_fg_subgroup_normalization():
    a = Permutation.from_cycles(4, [(1, 2)])
    e = a.context.identity
    H = FgSubgroup("H", [e, a, a, e])
    assert H.generators == (a,)
    assert not H.is_trivial()
    assert FgSubgroup("T", [e]).is_trivial()


def test_subgroups_commute_examples():
    H = FgSubgroup("H", [Permutation.from_cycles(4, [(1, 2)])])
    K = FgSubgroup("K", [Permutation.from_cycles(4, [(3, 4)])])
    assert subgroups_commute(H, K).ok

    L = FgSubgroup(
        "L",
        [Permutation.from_cycles(4, [(1, 2)]), Permutation.from_cycles(4, [(1, 3)])],
    )
    rep = subgroups_commute(L, L)
    assert not rep.ok
    assert rep.counterexample is not None
    h, k = rep.counterexample
    assert not commutator(h, k).is_identity()


def test_trivial_factor_commutes_with_everything():
    H = FgSubgroup("H", [Permutation.from_cycles(4, [(1, 2), (3, 4)])])
    T = FgSubgroup("T", [])
    assert subgroups_commute(H, T).ok


def brute_force_commute(H, K):
    """Oracle: enumerate both subgroups fully, test every element pair."""
    he = enumerate_subgroup(list(H.generators))
    ke = enumerate_subgroup(list(K.generators))
    return all(commutator(h, k).is_identity() for h in he for k in ke)


def test_generator_check_agrees_with_full_enumeration():
    ctx = SymmetricGroupContext(4)
    gens = [
        Permutation.from_cycles(4, [(1, 2)]),
        Permutation.from_cycles(4, [(3, 4)]),
        Permutation.from_cycles(4, [(1, 2), (3, 4)]),
        Permutation.from_cycles(4, [(1, 2, 3)]),
    ]
    for g1, g2 in itertools.combinations(gens, 2):
        H = FgSubgroup("H", [g1])
        K = FgSubgroup("K", [g2])
        assert subgroups_commute(H, K).ok == brute_force_commute(H, K)


def test_enumerate_subgroup_sizes():
    s4 = symmetric_group(4)
    assert len(enumerate_subgroup(list(s4.generators))) == 24
    a = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    assert len(enumerate_subgroup([a])) == 5


def test_element_order():
    assert element_order(Permutation.from_cycles(6, [(1, 2, 3), (4, 5)])) == 6
    e = SymmetricGroupContext(3).identity
    assert element_order(e) == 1
