"""Differential tests of the exact rational kernels against sympy."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from displacement.matrices import RationalMatrix, nullspace, rref  # noqa: E402

F = Fraction

ENTRIES = {
    "integer": st.integers(-6, 6).map(F),
    "rational": st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
}


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def from_sympy(m):
    return [[F(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@st.composite
def grids(draw, min_size=1, max_size=5, square=True):
    """Integer or rational rows, square or not, at most 5 x 5."""
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    nrows = draw(st.integers(min_size, max_size))
    ncols = nrows if square else draw(st.integers(min_size, max_size))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@st.composite
def invertible(draw):
    rows = draw(grids())
    assume(to_sympy(rows).det() != 0)
    return rows


@settings(max_examples=100, deadline=None)
@given(invertible(), invertible())
def test_product_matches_sympy(a_rows, b_rows):
    a, b = RationalMatrix(a_rows), RationalMatrix(b_rows)
    n = max(a.size, b.size)
    expected = from_sympy(to_sympy(a.padded(n)) * to_sympy(b.padded(n)))
    product = a * b
    assert [list(r) for r in product.padded(n)] == expected
    # the trusted product is trimmed exactly as the validating constructor trims
    assert product == RationalMatrix(expected)
    assert product.entries == RationalMatrix(expected).entries
    # a product that cancels b trims back to a
    assert product * b.inverse() == a


@settings(max_examples=100, deadline=None)
@given(invertible())
def test_inverse_matches_sympy(rows):
    m = RationalMatrix(rows)
    inv = m.inverse()
    expected = from_sympy(to_sympy(m.entries).inv())
    assert [list(r) for r in inv.padded(m.size)] == expected
    assert inv == RationalMatrix(expected)
    assert (m * inv).is_identity() and (inv * m).is_identity()


@settings(max_examples=100, deadline=None)
@given(grids(square=False))
def test_rref_matches_sympy(rows):
    red, pivots = rref(rows)
    expected, expected_pivots = to_sympy(rows).rref()
    assert pivots == list(expected_pivots)
    assert red == from_sympy(expected)[: len(pivots)]


@settings(max_examples=100, deadline=None)
@given(grids(square=False))
def test_nullspace_matches_sympy(rows):
    ncols = len(rows[0])
    ours = [list(v) for v in nullspace(rows, ncols)]
    basis = to_sympy(rows).nullspace()
    if not basis:
        assert ours == []
        return
    # compare spans through the RREF of sympy's basis
    expected, pivots = sympy.Matrix.hstack(*basis).T.rref()
    assert ours == from_sympy(expected)[: len(pivots)]
