"""Exact rational matrices and subspaces.

Realizes the directed union of the GL_n(Q): a matrix of size n embeds in
any larger size by identity padding, and the canonical form trims
trailing identity rows/columns.  All arithmetic is exact (Fraction);
there is no floating point anywhere in this module.

The public constructor ``RationalMatrix(...)`` rejects singular input
with an ``rref``.  Products and inverses of invertible matrices are
invertible, so they take a trusted path that trims to canonical size
but runs no invertibility check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

# commutator and subgroups_commute are unused here but stay module
# attributes: the benchmark tracer (bench/tracer.py) patches them by name
from .core import ContextMismatchError, FgSubgroup, PropertyReport, commutator, subgroups_commute

Row = Tuple[Fraction, ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Row-reduced echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(map(_frac, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[Row]:
    """RREF basis of {x : A x = 0} for the given coefficient rows."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    red_basis, _ = rref(basis)
    return [tuple(r) for r in red_basis]


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


def _trim(entries: Tuple[Row, ...]) -> Tuple[Row, ...]:
    n = len(entries)
    m = n
    while m > 1:
        k = m - 1
        ok = entries[k][k] == 1
        ok = ok and all(entries[k][j] == 0 for j in range(m) if j != k)
        ok = ok and all(entries[i][k] == 0 for i in range(m) if i != k)
        if not ok:
            break
        m -= 1
    if m == n:
        return entries
    return tuple(tuple(row[:m]) for row in entries[:m])


class RationalMatrix:
    """An invertible matrix over Q, canonical at its trimmed size."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(map(_frac, r)) for r in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.entries = _trim(rows)
        if not self.is_invertible():
            raise ValueError("matrix is singular")

    @classmethod
    def _trusted(cls, rows: Tuple[Row, ...]) -> "RationalMatrix":
        """The matrix with these Fraction rows, which must be square and
        invertible, as closed operations (product, inverse, padding) and
        L*D*U products guarantee: it trims but runs no invertibility check."""
        m = object.__new__(cls)
        m.entries = _trim(rows)
        return m

    @property
    def context(self) -> GLContext:
        return GLContext()

    @property
    def size(self) -> int:
        return len(self.entries)

    def padded(self, n: int) -> Tuple[Row, ...]:
        """Entries embedded into size n by identity padding."""
        k = self.size
        if n < k:
            raise ValueError("cannot pad to a smaller size")
        if n == k:
            return self.entries
        return tuple(
            tuple(
                self.entries[i][j]
                if i < k and j < k
                else (Fraction(1) if i == j else Fraction(0))
                for j in range(n)
            )
            for i in range(n)
        )

    def is_invertible(self) -> bool:
        red, pivots = rref(self.entries)
        return len(pivots) == self.size

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        n = max(self.size, other.size)
        a, cols = self.padded(n), tuple(zip(*other.padded(n)))
        return RationalMatrix._trusted(
            tuple(
                tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                for row in a
            )
        )

    def inverse(self) -> "RationalMatrix":
        n = self.size
        aug = [
            list(self.entries[i])
            + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
            for i in range(n)
        ]
        red, pivots = rref(aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix._trusted(tuple(tuple(row[n:]) for row in red))

    def is_identity(self) -> bool:
        return self.size == 1 and self.entries[0][0] == 1

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "Mat" + repr([[str(x) for x in row] for row in self.entries])

    def apply(self, vector: Sequence[Fraction]) -> Row:
        """Image of a column vector (given as a row of coordinates)."""
        n = max(self.size, len(vector))
        m = self.padded(n)
        v = tuple(map(_frac, vector)) + (Fraction(0),) * (n - len(vector))
        return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))


def identity_matrix(n: int) -> RationalMatrix:
    return RationalMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


class RationalSubspace:
    """A linear subspace of Q^n, canonical by RREF basis."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors: Iterable[Sequence]):
        rows = [tuple(map(_frac, v)) for v in vectors]
        if any(len(v) != ambient for v in rows):
            raise ValueError("vector length does not match ambient dimension")
        red, _ = rref(rows)
        self.ambient = ambient
        self.basis: Tuple[Row, ...] = tuple(tuple(r) for r in red)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence[Fraction]) -> bool:
        v = tuple(map(_frac, vector))
        red, _ = rref(list(self.basis) + [v])
        return len(red) == self.dim

    def __eq__(self, other):
        if not isinstance(other, RationalSubspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"RationalSubspace(dim {self.dim} in Q^{self.ambient})"


def span(ambient: int, *vectors: Sequence) -> RationalSubspace:
    return RationalSubspace(ambient, vectors)


def standard_basis_vector(ambient: int, i: int) -> Row:
    """e_i, 1-based."""
    return tuple(Fraction(1) if j == i - 1 else Fraction(0) for j in range(ambient))


def subspace_sum(U: RationalSubspace, V: RationalSubspace) -> RationalSubspace:
    if U.ambient != V.ambient:
        raise ContextMismatchError("subspaces of different ambient dimension")
    return RationalSubspace(U.ambient, list(U.basis) + list(V.basis))


def subspace_intersection(U: RationalSubspace, V: RationalSubspace) -> RationalSubspace:
    """Exact intersection: solve a.U - b.V = 0 over the stacked bases."""
    if U.ambient != V.ambient:
        raise ContextMismatchError("subspaces of different ambient dimension")
    k, m = U.dim, V.dim
    if k == 0 or m == 0:
        return RationalSubspace(U.ambient, [])
    # columns: a_1..a_k, b_1..b_m; rows: one equation per ambient coordinate
    rows = []
    for c in range(U.ambient):
        rows.append(
            tuple(U.basis[i][c] for i in range(k))
            + tuple(-V.basis[j][c] for j in range(m))
        )
    sols = nullspace(rows, k + m)
    vectors = []
    for sol in sols:
        vec = tuple(
            sum(sol[i] * U.basis[i][c] for i in range(k)) for c in range(U.ambient)
        )
        vectors.append(vec)
    return RationalSubspace(U.ambient, vectors)


def _image_in(g: RationalMatrix, v: Row, ambient: int) -> Row:
    """g(v) as a vector of Q^ambient; ValueError if g moves v out of it."""
    w = g.apply(v)
    if any(w[ambient:]):
        raise ValueError(f"{g!r} maps a vector out of Q^{ambient}")
    return w[:ambient]


def subspace_image(t: RationalMatrix, V: RationalSubspace) -> RationalSubspace:
    """The image t(V) inside the same ambient space."""
    return RationalSubspace(V.ambient, [_image_in(t, v, V.ambient) for v in V.basis])


def block_conjugate(X: RationalMatrix, g: RationalMatrix) -> RationalMatrix:
    """(X (+) I) g (X^-1 (+) I): conjugation of g by X acting on the first
    two coordinates only.  X must be an invertible 2x2 matrix."""
    if X.size > 2:
        raise ValueError("X must act on the first two coordinates")
    n = max(2, g.size)
    Xp = RationalMatrix._trusted(X.padded(n))
    return Xp * g * Xp.inverse()


def centralizer_space(gens: Sequence[RationalMatrix], ambient: int = 0) -> RationalSubspace:
    """Basis of {M in M_n : Mg = gM for all generators g}.

    Solves the stacked Sylvester system exactly; the result lives in the
    n^2-dimensional space of matrices, flattened row-major.  ``ambient``
    may force a size larger than the generators' own.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = max([ambient] + [g.size for g in gens])
    rows = []
    for g in gens:
        gp = g.padded(n)
        for i in range(n):
            for j in range(n):
                coeff = [Fraction(0)] * (n * n)
                for k in range(n):
                    coeff[i * n + k] += gp[k][j]
                    coeff[k * n + j] -= gp[i][k]
                rows.append(tuple(coeff))
    return RationalSubspace(n * n, nullspace(rows, n * n))


def matrices_of(space: RationalSubspace, n: int) -> List[Tuple[Row, ...]]:
    """Reshape a flattened basis of a matrix space back into n x n grids."""
    if space.ambient != n * n:
        raise ValueError("ambient dimension is not n^2")
    return [
        tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))
        for v in space.basis
    ]


def scalar_action_check(H: FgSubgroup, V: RationalSubspace) -> PropertyReport:
    """Pass iff every generator of H acts on V as a scalar.

    Raises ValueError if V is not invariant under some generator.
    """
    desc = f"{H.label} acts on a {V.dim}-dimensional subspace by scalars"
    checks = []
    for g in H.generators:
        images = [_image_in(g, v, V.ambient) for v in V.basis]
        for v, w in zip(V.basis, images):
            if not V.contains(w):
                raise ValueError(f"subspace not invariant under {g!r}")
        if not V.basis:
            continue
        v0, w0 = V.basis[0], images[0]
        j = next(i for i, x in enumerate(v0) if x != 0)
        lam = w0[j] / v0[j]
        for v, w in zip(V.basis, images):
            if any(wi != lam * vi for vi, wi in zip(v, w)):
                return PropertyReport.failing(
                    desc, "non-scalar action", counterexample=(g, v)
                )
        checks.append(f"{g!r} acts by scalar {lam}")
    return PropertyReport.passing(desc, checks)


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


def gl_block_swap_witness(H: FgSubgroup, n: int = 0):
    """Z/2 witness for a subgroup of GL_n: conjugation by the block swap
    of GL_{2n} displaces H onto a block-disjoint copy, and the swap
    squares to the identity."""
    from .checkers import WitnessCertificate, check_cznc

    if H.is_trivial():
        n = max(n, 1)
    else:
        n = max([n] + [g.size for g in H.generators])
    t = block_swap(n)
    cert = WitnessCertificate(
        property="CZNC", subject=H, payload={"t": t, "n": 2}, bounds={}
    )
    return cert, check_cznc(H, t, 2)
