import weakref

import pytest

from displacement.core import ContextMismatchError
from displacement.perms import Permutation, SymmetricGroupContext, symmetric_group


def test_from_cycles_and_call():
    p = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    assert p(1) == 2 and p(2) == 1 and p(3) == 4 and p(4) == 3


def test_mul_applies_right_factor_first():
    a = Permutation.from_cycles(3, [(1, 2)])
    b = Permutation.from_cycles(3, [(2, 3)])
    # (a*b)(x) = a(b(x)): 1 -> 1 -> 2
    assert (a * b)(1) == 2
    assert (a * b)(2) == 3


def test_inverse_and_identity():
    p = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    assert (p * p.inverse()).is_identity()
    assert p.inverse()(1) == 5


def test_cycle_representation():
    p = Permutation.from_cycles(6, [(4, 5), (1, 3, 2)])
    assert p.cycles() == ((1, 3, 2), (4, 5))
    assert repr(p) == "(1 3 2)(4 5)"
    assert repr(SymmetricGroupContext(3).identity) == "()"


def test_invalid_cycles_rejected():
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 1)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 4)])
    with pytest.raises(ValueError):
        Permutation(SymmetricGroupContext(3), (0, 0, 1))


def test_extend_preserves_action():
    p = Permutation.from_cycles(3, [(1, 2, 3)])
    q = p.extend(6)
    assert q.context.degree == 6
    assert all(q(i) == p(i) for i in range(1, 4))
    assert all(q(i) == i for i in range(4, 7))
    with pytest.raises(ValueError):
        q.extend(3)


def test_symmetric_group_generators():
    s4 = symmetric_group(4)
    assert len(s4.generators) == 2
    assert s4.context.degree == 4
    s1 = symmetric_group(1)
    assert s1.is_trivial()


def test_context_caching():
    assert SymmetricGroupContext(5) is SymmetricGroupContext(5)


def test_identity_is_shared_and_products_stay_in_their_context():
    ctx = SymmetricGroupContext(4)
    assert ctx.identity is SymmetricGroupContext(4).identity
    p = Permutation.from_cycles(4, [(1, 2, 3)])
    assert p * p.inverse() == ctx.identity
    assert (p * p).context is ctx and sorted((p * p).images) == [0, 1, 2, 3]
    with pytest.raises(ContextMismatchError):
        p * Permutation.from_cycles(3, [(1, 2)])


def test_a_context_nothing_holds_is_freed():
    """Once no permutation of degree 13 is left, its context goes with
    the identity's images, though the identity holds the context."""
    p = Permutation.from_cycles(13, [(1, 2)])
    ctx = weakref.ref(p.context)
    assert p.context.identity.context is p.context
    del p
    assert ctx() is None
    assert 13 not in SymmetricGroupContext._cache
