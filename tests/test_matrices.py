"""Exact rational linear algebra and the GL witnesses."""

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from displacement import suites
from displacement.checkers import check_cznc, check_czc, verify_certificate
from displacement.core import FgSubgroup, conj, subgroups_commute
from displacement.matrices import (
    RationalMatrix,
    RationalSubspace,
    block_conjugate,
    block_swap,
    centralizer_space,
    gl2z_generators,
    gl_block_swap_witness,
    matrices_of,
    nullspace,
    rref,
)

F = Fraction


def identity_matrix(n):
    return RationalMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def random_invertible(rng, n):
    while True:
        entries = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        try:
            return RationalMatrix(entries)
        except ValueError:
            continue


def test_rref_and_nullspace():
    red, pivots = rref([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert pivots == [0, 2]
    ns = nullspace([[1, 2, 3]], 3)
    assert len(ns) == 2
    for v in ns:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_canonical_trim():
    m = RationalMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m.size == 1
    assert m == RationalMatrix([[2]])
    assert identity_matrix(5).is_identity()


def test_singular_rejected():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [2, 4]])


def assert_canonical(m):
    """den > 0, the gcd of den and all entries is 1, and the trailing
    row and column are not those of the identity."""
    assert m.den > 0
    assert gcd(m.den, *chain.from_iterable(m.num)) == 1
    n = m.size
    assert all(len(row) == n for row in m.num)
    if n > 1:
        last = [m.num[n - 1][j] for j in range(n)] + [m.num[i][n - 1] for i in range(n)]
        assert last != [0] * (n - 1) + [m.den] + [0] * (n - 1) + [m.den]


def test_fractional_entries_have_one_canonical_form():
    """The constructor and the trusted path, from any scaling of the same
    integer grid, give equal matrices with equal hashes."""
    public = RationalMatrix([[F(1, 2), F(1, 3)], [0, F(2, 3)]])
    assert (public.num, public.den) == (((3, 2), (0, 4)), 6)
    for num, den in [
        (((3, 2), (0, 4)), 6),
        (((6, 4), (0, 8)), 12),
        (((-3, -2), (0, -4)), -6),
        (((-30, -20), (0, -40)), -60),
    ]:
        trusted = RationalMatrix._trusted(num, den)
        assert_canonical(trusted)
        assert trusted == public and hash(trusted) == hash(public)
        assert trusted.entries == public.entries == ((F(1, 2), F(1, 3)), (0, F(2, 3)))


def test_trim_with_a_denominator():
    """Trailing rows and columns of the identity are trimmed when den > 1,
    where the identity block reads den, not 1."""
    m = RationalMatrix([[F(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (m.num, m.den) == (((1,),), 2)
    assert m == RationalMatrix._trusted(((1, 0, 0), (0, 2, 0), (0, 0, 2)), 2)
    assert RationalMatrix._trusted(((3, 0), (0, 3)), 3).is_identity()
    a = RationalMatrix([[F(1, 2), F(1, 3)], [0, F(2, 3)]])
    b = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, F(5, 7)]])
    c = a * b
    assert c.size == 3 and c.den == 42
    assert c * b.inverse() == a and (c * b.inverse()).size == 2
    # not trimmed: an off-diagonal entry in the last column
    assert RationalMatrix([[1, F(1, 2)], [0, 1]]).size == 2


def test_singular_input_rejected_with_fractions():
    with pytest.raises(ValueError, match="singular"):
        RationalMatrix([[F(1, 2), F(1, 3)], [F(3, 2), 1]])
    with pytest.raises(ValueError, match="singular"):
        RationalMatrix([[0, 0, 0], [0, F(1, 3), 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="singular"):
        RationalMatrix._trusted(((1, 2), (2, 4)), 3).inverse()
    with pytest.raises(ValueError, match="square"):
        RationalMatrix([[1, 0], [0]])


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def rational_invertible(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    try:
        return RationalMatrix(rows)
    except ValueError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(rational_invertible(), rational_invertible())
def test_closed_operations_stay_canonical(a, b):
    """Products and inverses are reduced, with a positive denominator,
    and equal to the public constructor on their own entries."""
    for m in (a, b, a * b, a.inverse(), (a * b).inverse(), a * a.inverse()):
        assert_canonical(m)
        again = RationalMatrix(m.entries)
        assert (again.num, again.den) == (m.num, m.den)
        assert hash(again) == hash(m)
    assert (a * a.inverse()).is_identity()


def test_mul_pads_to_common_size():
    a = RationalMatrix([[0, 1], [1, 0]])
    b = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    c = a * b
    assert c.size == 3
    assert c.entries[0][1] == 1 and c.entries[2][2] == 2


def test_inverse():
    rng = random.Random(5)
    for _ in range(20):
        m = random_invertible(rng, 3)
        assert (m * m.inverse()).is_identity()


def test_block_conjugate_against_full_conjugation():
    """Oracle: block_conjugate must agree with generic conj in GL."""
    rng = random.Random(11)
    for _ in range(50):
        X = random_invertible(rng, 2)
        g = random_invertible(rng, 4)
        assert block_conjugate(X, g) == conj(RationalMatrix(X.padded(4)), g)


def test_block_conjugate_block_structure():
    rng = random.Random(13)
    X = random_invertible(rng, 2)
    g = random_invertible(rng, 4)
    got = block_conjugate(X, g).padded(4)
    gp = g.padded(4)
    Xi = X.inverse()
    # bottom-right block D is untouched
    for i in range(2, 4):
        for j in range(2, 4):
            assert got[i][j] == gp[i][j]
    # top-right block is X*B
    for i in range(2):
        for j in range(2, 4):
            assert got[i][j] == sum(X.padded(2)[i][k] * gp[k][j] for k in range(2))


def test_gl_block_identity_oracle_catches_a_wrong_inverse(monkeypatch):
    """The suite's oracle takes X^-1 from the 2x2 adjugate, not from the
    kernel: with ``inverse`` returning X * X, the check must fail."""
    assert suites.run_gl_block_identity({}, random.Random(0), samples=50).ok
    monkeypatch.setattr(RationalMatrix, "inverse", lambda self: self * self)
    rep = suites.run_gl_block_identity({}, random.Random(0), samples=50)
    assert rep.verdict == "fail"


def test_gl_block_identity_oracle_catches_conjugation_the_wrong_way(monkeypatch):
    """With ``block_conjugate`` returning X^-1 g X in place of X g X^-1,
    the integer oracle must fail."""
    monkeypatch.setattr(
        suites.matrices, "block_conjugate", lambda X, g: X.inverse() * g * X
    )
    rep = suites.run_gl_block_identity({}, random.Random(0), samples=50)
    assert rep.verdict == "fail"


def test_block_conjugate_identity_cases():
    g = RationalMatrix([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 3, 1], [0, 0, 1, 1]])
    assert block_conjugate(identity_matrix(2), g) == g
    X = RationalMatrix([[-1, 0], [0, 1]])
    assert block_conjugate(X, identity_matrix(4)).is_identity()


def test_centralizer_of_identity_is_everything():
    space = centralizer_space([identity_matrix(3)], ambient=3)
    assert space.dim == 9


def test_centralizer_of_test_matrices():
    tests = [
        RationalMatrix([[-1, 0], [0, 1]]),
        RationalMatrix([[1, 0], [0, -1]]),
        RationalMatrix([[1, 0], [1, 1]]),
    ]
    space = centralizer_space(tests, ambient=4)
    assert space.dim == 5
    for M in matrices_of(space, 4):
        assert M[0][0] == M[1][1] and M[0][1] == 0 and M[1][0] == 0
        for i in range(2):
            for j in range(2, 4):
                assert M[i][j] == 0 and M[j][i] == 0


def test_centralizer_of_gl2z_is_scalars():
    space = centralizer_space(gl2z_generators().generators, ambient=2)
    assert space.dim == 1
    (M,) = matrices_of(space, 2)
    assert M[0][0] == M[1][1] and M[0][1] == 0 and M[1][0] == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(rational_invertible(), min_size=1, max_size=3), st.integers(0, 4))
def test_centralizer_basis_needs_no_second_elimination(gens, ambient):
    """centralizer_space takes the RREF basis of ``nullspace`` as it is;
    the validating constructor, which eliminates again, gives the same
    basis."""
    space = centralizer_space(gens, ambient=ambient)
    again = RationalSubspace(space.ambient, space.basis)
    assert again.ambient == space.ambient
    assert again.basis == space.basis


def test_swap_moves_plane_off_itself():
    """The block swap of Q^4 maps <e1, e2> onto <e3, e4>: the plane and
    its image (the first two columns) together span Q^4."""
    t = block_swap(2)
    plane = [(1, 0, 0, 0), (0, 1, 0, 0)]
    image = [tuple(row[j] for row in t.entries) for j in range(2)]
    assert image == [(0, 0, 1, 0), (0, 0, 0, 1)]
    assert RationalSubspace(4, plane + image).dim == 4


def test_block_swap_is_involution():
    for n in (1, 2, 3):
        t = block_swap(n)
        assert (t * t).is_identity()


def test_gl_block_swap_witness():
    H = gl2z_generators()
    cert = gl_block_swap_witness(H)
    assert verify_certificate(cert).ok
    t = cert.payload["t"]
    assert t == block_swap(2)
    assert subgroups_commute(H, H.conjugate(t)).ok
    # t^2 = 1, so the Z-conditions collapse to [H, H] != 1 at p = 2
    assert not check_czc(H, t, 2).ok


def test_generalized_block_swap_shapes():
    """Any involution [[0, X], [X^-1, 0]] is a Z/2 witness for the
    top-block copy."""
    rng = random.Random(17)
    H = gl2z_generators()
    for _ in range(10):
        X = random_invertible(rng, 2)
        Xp = X.padded(2)
        Xi = X.inverse().padded(2)
        t = RationalMatrix(
            [
                [0, 0] + list(Xp[0]),
                [0, 0] + list(Xp[1]),
                list(Xi[0]) + [0, 0],
                list(Xi[1]) + [0, 0],
            ]
        )
        assert (t * t).is_identity()
        assert check_cznc(H, t, 2).ok


def test_trivial_subgroup_witness():
    T = FgSubgroup("T", [], context=None)
    cert = gl_block_swap_witness(T)
    assert verify_certificate(cert).ok
    assert cert.payload["t"] == block_swap(1)
