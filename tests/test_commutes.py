"""The commutation predicate and the trusted conjugate over every
realization: ``commutes`` against the commutator oracle, and
``FgSubgroup.conjugate`` against ``conj`` and the validating constructor."""

import pytest

from displacement.core import FgSubgroup, commutator, commutes, conj
from displacement.hnn import binate_presentation, mitosis_presentation
from displacement.matrices import RationalMatrix
from displacement.perms import Permutation, symmetric_group
from displacement.plmaps import thompson_generators
from displacement.wreath import TowerSpec, embed_level

S3 = symmetric_group(3)
E3 = S3.context.identity
CYCLE = Permutation.from_cycles(3, [(1, 2, 3)])
SWAP = Permutation.from_cycles(3, [(1, 2)])
OTHER_SWAP = Permutation.from_cycles(3, [(1, 3)])


def _wreath_level2():
    tower = TowerSpec(S3, ("prefix", (2, 3)))
    ctx = tower.context(2)
    a = embed_level(embed_level(SWAP, tower.context(1)), ctx)
    return a, ctx.shift_generator()


def _britton(make, letter):
    pres = make(S3)
    return pres.base_element(CYCLE, E3), pres.stable_letter(letter)


# realization -> a pair (a, b) of elements that do not commute
NON_COMMUTING = {
    "permutation": lambda: (SWAP, OTHER_SWAP),
    "wreath-level-2": _wreath_level2,
    "rational-matrix": lambda: (
        RationalMatrix([[1, 1], [0, 1]]),
        RationalMatrix([[1, 0], [1, 1]]),
    ),
    "pl-homeo": thompson_generators,
    "britton-b(Sym3)": lambda: _britton(binate_presentation, "d"),
    "britton-m(Sym3)": lambda: _britton(mitosis_presentation, "s"),
}


@pytest.mark.parametrize("name", sorted(NON_COMMUTING))
def test_commutes_agrees_with_the_commutator(name):
    a, b = NON_COMMUTING[name]()
    e = a.context.identity
    cases = [
        (a, a * a * a, True),
        (a, a.inverse(), True),
        (a, e, True),
        (e, b, True),
        (a, b, False),
        (b, a, False),
        (a, a * b, False),
        (b.inverse(), a, False),
    ]
    for x, y, expected in cases:
        assert commutator(x, y).is_identity() is expected
        assert commutes(x, y) is expected


@pytest.mark.parametrize("name", sorted(NON_COMMUTING))
def test_conjugate_is_aligned_with_conj_and_the_validated_subgroup(name):
    a, b = NON_COMMUTING[name]()
    H = FgSubgroup("H", [a, b, a * b])
    for t in (b, a * b.inverse(), a.context.identity):
        K = H.conjugate(t)
        expected = tuple(conj(t, h) for h in H)
        assert K.generators == expected
        assert K.generators == FgSubgroup(K.label, list(expected)).generators
        assert K.context == H.context
