"""Exact rational linear algebra and the GL witnesses."""

import random
from fractions import Fraction

import pytest

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
    identity_matrix,
    matrices_of,
    nullspace,
    rref,
    scalar_action_check,
    span,
    standard_basis_vector,
    subspace_image,
    subspace_intersection,
    subspace_sum,
)

F = Fraction


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


def test_subspace_dim_formula():
    rng = random.Random(3)
    for _ in range(25):
        U = RationalSubspace(4, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)])
        V = RationalSubspace(4, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)])
        inter = subspace_intersection(U, V)
        total = subspace_sum(U, V)
        assert inter.dim + total.dim == U.dim + V.dim


def test_subspace_intersection_examples():
    e1 = standard_basis_vector(4, 1)
    e2 = standard_basis_vector(4, 2)
    e3 = standard_basis_vector(4, 3)
    U = span(4, e1, e2)
    assert subspace_intersection(U, span(4, e1, e3)) == span(4, e1)
    assert subspace_intersection(U, U) == U


def test_swap_moves_plane_off_itself():
    t = block_swap(2)
    e1 = standard_basis_vector(4, 1)
    e2 = standard_basis_vector(4, 2)
    U = span(4, e1, e2)
    moved = subspace_image(t, U)
    assert subspace_intersection(U, moved).dim == 0


def test_scalar_action_check():
    H = gl2z_generators()
    V = span(4, standard_basis_vector(4, 3), standard_basis_vector(4, 4))
    rep = scalar_action_check(H, V)
    assert rep.ok

    W = span(2, standard_basis_vector(2, 1), standard_basis_vector(2, 2))
    rep2 = scalar_action_check(H, W)
    assert not rep2.ok

    minus = FgSubgroup("-I", [RationalMatrix([[-1, 0], [0, -1]])])
    rep3 = scalar_action_check(minus, W)
    assert rep3.ok


def test_scalar_action_requires_invariance():
    H = FgSubgroup("shear", [RationalMatrix([[1, 0], [1, 1]])])
    V = span(2, standard_basis_vector(2, 1))
    with pytest.raises(ValueError):
        scalar_action_check(H, V)


def test_images_leaving_the_ambient_space_are_rejected():
    """A matrix larger than the ambient space must not have its image
    cut down to Q^ambient: the swap of Q^2 moves e1 of Q^1 to e2."""
    V = span(1, (1,))
    with pytest.raises(ValueError):
        scalar_action_check(FgSubgroup("H", [block_swap(1)]), V)
    with pytest.raises(ValueError):
        subspace_image(block_swap(1), V)


def test_larger_matrix_acts_when_the_dropped_coordinates_are_zero():
    g = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    V = span(2, standard_basis_vector(2, 1))
    rep = scalar_action_check(FgSubgroup("diag(1, 1, 2)", [g]), V)
    assert rep.ok and rep.checks == (f"{g!r} acts by scalar 1",)
    assert subspace_image(g, V) == V


def test_block_swap_is_involution():
    for n in (1, 2, 3):
        t = block_swap(n)
        assert (t * t).is_identity()


def test_gl_block_swap_witness():
    H = gl2z_generators()
    cert, rep = gl_block_swap_witness(H)
    assert rep.ok
    assert verify_certificate(cert).ok
    t = cert.payload["t"]
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
    cert, rep = gl_block_swap_witness(T)
    assert rep.ok
