"""Differential tests of subgroup and wreath-level orders against sympy."""

import math

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from sympy.combinatorics import Permutation as SympyPermutation  # noqa: E402
from sympy.combinatorics import PermutationGroup  # noqa: E402

from displacement.core import enumerate_subgroup  # noqa: E402
from displacement.perms import (  # noqa: E402
    Permutation,
    SymmetricGroupContext,
    symmetric_group,
)
from displacement.wreath import (  # noqa: E402
    TowerSpec,
    embed_to_level,
    enumerate_level,
    level_order,
    realize_permutation,
)


def sympy_order(perms):
    return PermutationGroup([SympyPermutation(list(p.images)) for p in perms]).order()


@pytest.mark.parametrize("degree", range(1, 6))
def test_symmetric_group_order(degree):
    G = symmetric_group(degree)
    gens = list(G.generators) or [G.context.identity]
    assert len(enumerate_subgroup(gens)) == sympy_order(gens) == math.factorial(degree)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.permutations(range(6)), min_size=1, max_size=3))
def test_enumerate_subgroup_order_in_sym6(images):
    gens = [Permutation(SymmetricGroupContext(6), p) for p in images]
    assert len(enumerate_subgroup(gens)) == sympy_order(gens)


def realized_level_generators(tower, level):
    """The base generators and each lower shift, embedded up to the
    level, plus the level's own shift, all realized as permutations."""
    below = list(tower.base.generators)
    below += [tower.context(i).shift_generator() for i in range(1, level)]
    gens = [embed_to_level(g, tower, level) for g in below]
    gens.append(tower.context(level).shift_generator())
    return [realize_permutation(g) for g in gens]


@pytest.mark.parametrize("n", [2, 3])
def test_one_level_wreath_order(n):
    tower = TowerSpec(symmetric_group(3), ("prefix", (n,)))
    elements = list(enumerate_level(tower, 1))
    order = sympy_order(realized_level_generators(tower, 1))
    assert level_order(tower, 1) == len(elements) == order == 6**n * n
    assert len({realize_permutation(w) for w in elements}) == order


def test_two_level_wreath_order():
    tower = TowerSpec(symmetric_group(3), ("prefix", (2, 3)))
    order = sympy_order(realized_level_generators(tower, 2))
    assert level_order(tower, 2) == order == 1_119_744
