"""Exact rational matrices and centralizer spaces.

Realizes the directed union of the GL_n(Q): a matrix of size n embeds in
any larger size by identity padding, and the canonical form trims
trailing identity rows/columns.  There is no floating point anywhere in
this module.

A ``RationalMatrix`` is stored as a square grid ``num`` of Python
integers over one positive denominator ``den``, divided by the gcd of
``den`` and all entries.  With the trim, this form is canonical, so
``==`` and ``hash`` compare ``(num, den)``.  Products multiply the
integer grids and the two denominators.  Inverses, ``rref`` and
``nullspace`` share one fraction-free Gauss-Jordan elimination (Bareiss
1968), whose divisions are all exact.

``Fraction`` appears only at the boundary: the public constructors
accept it, and ``entries``, ``padded``, ``rref``, ``nullspace``, the
basis of a ``RationalSubspace`` and ``repr`` return it.

The public constructor ``RationalMatrix(...)`` rejects singular input.
Products and inverses of invertible matrices are invertible, so they take
the trusted path ``RationalMatrix._trusted(num, den)``, which reduces and
trims but runs no invertibility check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, List, Sequence, Tuple

# commutator and subgroups_commute are unused here but stay module
# attributes: the benchmark tracer (bench/tracer.py) patches them by name
from .core import FgSubgroup, commutator, subgroups_commute

Row = Tuple[Fraction, ...]
IntGrid = Tuple[Tuple[int, ...], ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _integer_rows(rows: Sequence[Sequence]) -> List[List[int]]:
    """Each row scaled by the lcm of its entries' denominators: integer
    rows with the same row space, hence the same reduced echelon form."""
    out = []
    for row in rows:
        fr = [_frac(x) for x in row]
        d = lcm(*[x.denominator for x in fr])
        out.append([x.numerator * (d // x.denominator) for x in fr])
    return out


def _bareiss(m: List[List[int]]) -> Tuple[List[int], int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows m, in
    place; returns (pivot columns, d).

    Afterwards the first len(pivots) rows are the reduced echelon rows
    times d, the last pivot, so each has d at its own pivot column and 0
    at the others, and the remaining rows are zero.  Each step replaces
    every other row a by (p a - a_c q) / prev, for the pivot row q with
    pivot p in column c and the previous pivot prev; every entry is then
    a minor of the input (Sylvester's identity), so the division is exact."""
    pivots: List[int] = []
    prev = 1
    if not m:
        return pivots, prev
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        q = m[r]
        p = q[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, q)]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots, prev


def _fraction_rows(m: List[List[int]], rank: int, d: int) -> List[List[Fraction]]:
    return [[Fraction(x, d) for x in row] for row in m[:rank]]


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Row-reduced echelon form; returns (nonzero rows, pivot columns)."""
    m = _integer_rows(rows)
    pivots, d = _bareiss(m)
    return _fraction_rows(m, len(pivots), d), pivots


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[Row]:
    """RREF basis of {x : A x = 0} for the given coefficient rows."""
    m = _integer_rows(rows)
    pivots, d = _bareiss(m)
    # the echelon rows are d times the reduced ones, so each free column
    # gives the kernel vector of the textbook construction, times d
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = d
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    pivots, d = _bareiss(basis)
    return [tuple(row) for row in _fraction_rows(basis, len(pivots), d)]


class GLContext:
    """The directed union of all GL_n(Q)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "GL(Q)"

    @property
    def identity(self) -> "RationalMatrix":
        return RationalMatrix([[1]])


def _canonical(num: IntGrid, den: int) -> Tuple[IntGrid, int]:
    """The canonical pair for the matrix num / den (den != 0): divided by
    the gcd of den and all entries, den made positive, and trailing
    identity rows and columns trimmed."""
    g = den
    for row in num:
        g = gcd(g, *row)
        if g == 1:
            break
    if den < 0:
        g = -g
    if g != 1:
        num = tuple([tuple([x // g for x in row]) for row in num])
        den //= g
    n = len(num)
    m = n
    while m > 1:
        k = m - 1
        row = num[k]
        if row[k] != den or any(row[:k]) or any(num[i][k] for i in range(k)):
            break
        m -= 1
    if m < n:
        num = tuple([row[:m] for row in num[:m]])
    return num, den


class RationalMatrix:
    """An invertible matrix over Q, canonical at its trimmed size."""

    __slots__ = ("num", "den")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [[_frac(x) for x in r] for r in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        den = lcm(*[x.denominator for r in rows for x in r])
        num = tuple([tuple([x.numerator * (den // x.denominator) for x in r]) for r in rows])
        self.num, self.den = _canonical(num, den)
        if not self.is_invertible():
            raise ValueError("matrix is singular")

    @classmethod
    def _trusted(cls, num: IntGrid, den: int = 1) -> "RationalMatrix":
        """The matrix num / den, for a square tuple of integer tuples num
        and den != 0.  It must be invertible, as closed operations
        (product, inverse) and L*D*U products guarantee: this reduces and
        trims but runs no invertibility check."""
        m = object.__new__(cls)
        m.num, m.den = _canonical(num, den)
        return m

    @property
    def context(self) -> GLContext:
        return GLContext()

    @property
    def size(self) -> int:
        return len(self.num)

    @property
    def entries(self) -> Tuple[Row, ...]:
        """The entries as Fractions, derived from ``num`` and ``den``."""
        return self.padded(self.size)

    def _padded_num(self, n: int) -> IntGrid:
        """``num`` embedded into size n >= size, padded with den * I."""
        k = len(self.num)
        if n == k:
            return self.num
        tail = (0,) * (n - k)
        den = self.den
        return tuple(
            [row + tail for row in self.num]
            + [(0,) * i + (den,) + (0,) * (n - i - 1) for i in range(k, n)]
        )

    def padded(self, n: int) -> Tuple[Row, ...]:
        """Entries embedded into size n by identity padding."""
        if n < self.size:
            raise ValueError("cannot pad to a smaller size")
        den = self.den
        return tuple(
            [tuple([Fraction(x, den) for x in row]) for row in self._padded_num(n)]
        )

    def is_invertible(self) -> bool:
        pivots, _ = _bareiss([list(row) for row in self.num])
        return len(pivots) == self.size

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        n = max(len(self.num), len(other.num))
        cols = tuple(zip(*other._padded_num(n)))
        return RationalMatrix._trusted(
            tuple(
                [
                    tuple([sum(map(mul, row, col)) for col in cols])
                    for row in self._padded_num(n)
                ]
            ),
            self.den * other.den,
        )

    def inverse(self) -> "RationalMatrix":
        n = self.size
        aug = [
            list(row) + [1 if j == i else 0 for j in range(n)]
            for i, row in enumerate(self.num)
        ]
        pivots, d = _bareiss(aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        # aug is [d I | d num^-1], and (num / den)^-1 = den num^-1
        den = self.den
        return RationalMatrix._trusted(
            tuple([tuple([den * x for x in row[n:]]) for row in aug]), d
        )

    def is_identity(self) -> bool:
        return self.size == 1 and self.num[0][0] == self.den

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "Mat" + repr([[str(x) for x in row] for row in self.entries])


class RationalSubspace:
    """A linear subspace of Q^n, canonical by RREF basis."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors: Iterable[Sequence]):
        rows = [tuple(v) for v in vectors]
        if any(len(v) != ambient for v in rows):
            raise ValueError("vector length does not match ambient dimension")
        red, _ = rref(rows)
        self.ambient = ambient
        self.basis: Tuple[Row, ...] = tuple(tuple(r) for r in red)

    @classmethod
    def _trusted(cls, ambient: int, basis: Sequence[Row]) -> "RationalSubspace":
        """The subspace spanned by ``basis``, which must already be an RREF
        basis of vectors of length ``ambient``, such as ``nullspace``
        returns: taken as it is, with no second elimination."""
        x = object.__new__(cls)
        x.ambient = ambient
        x.basis = tuple(basis)
        return x

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"RationalSubspace(dim {self.dim} in Q^{self.ambient})"


def block_conjugate(X: RationalMatrix, g: RationalMatrix) -> RationalMatrix:
    """(X (+) I) g (X^-1 (+) I): conjugation of g by X acting on the first
    two coordinates only.  X must be an invertible 2x2 matrix; the
    product pads X with the identity to the size of g."""
    if X.size > 2:
        raise ValueError("X must act on the first two coordinates")
    return X * g * X.inverse()


def centralizer_space(gens: Sequence[RationalMatrix], ambient: int = 0) -> RationalSubspace:
    """Basis of {M in M_n : Mg = gM for all generators g}.

    Solves the stacked Sylvester system exactly; the result lives in the
    n^2-dimensional space of matrices, flattened row-major.  ``ambient``
    may force a size larger than the generators' own.  The equations
    use each g's integer grid, since Mg = gM iff M(kg) = (kg)M, k != 0.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = max([ambient] + [g.size for g in gens])
    rows = []
    for g in gens:
        gp = g._padded_num(n)
        for i in range(n):
            for j in range(n):
                coeff = [0] * (n * n)
                for k in range(n):
                    coeff[i * n + k] += gp[k][j]
                    coeff[k * n + j] -= gp[i][k]
                rows.append(coeff)
    return RationalSubspace._trusted(n * n, nullspace(rows, n * n))


def matrices_of(space: RationalSubspace, n: int) -> List[Tuple[Row, ...]]:
    """Reshape a flattened basis of a matrix space back into n x n grids."""
    if space.ambient != n * n:
        raise ValueError("ambient dimension is not n^2")
    return [
        tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))
        for v in space.basis
    ]


def block_swap(n: int) -> RationalMatrix:
    """The involution of Q^{2n} swapping the first and last n coordinates."""
    return RationalMatrix(
        [
            [1 if j == (i + n) % (2 * n) else 0 for j in range(2 * n)]
            for i in range(2 * n)
        ]
    )


def gl2z_generators() -> FgSubgroup:
    """The fixed generator list for the copy of GL_2(Z) on <e1, e2>:
    the three centralizer test matrices plus the coordinate swap."""
    return FgSubgroup(
        "GL2(Z)",
        [
            RationalMatrix([[-1, 0], [0, 1]]),
            RationalMatrix([[1, 0], [0, -1]]),
            RationalMatrix([[1, 0], [1, 1]]),
            RationalMatrix([[0, 1], [1, 0]]),
        ],
    )


def gl_block_swap_witness(H: FgSubgroup):
    """Z/2 witness for a subgroup of GL_n, n the largest generator size
    (1 for a trivial H): conjugation by the block swap of GL_{2n}
    displaces H onto a block-disjoint copy, and the swap squares to the
    identity."""
    from .checkers import WitnessCertificate

    n = max([1] + [g.size for g in H.generators])
    return WitnessCertificate("CZNC", H, {"t": block_swap(n), "n": 2})
