"""Exact matrices over quotient rings, plus the linear algebra the package
needs: block assembly and two eliminations.

Scalar matrices (entries in the base field) go through one reduced row
echelon helper, :func:`scalar_rref`; the rank factorizations behind k0's
certificates are built on it.  Rank over the fraction field of an integral
coordinate ring uses division-free elimination, which needs no fractions."""

from __future__ import annotations

from ..errors import AmbientMismatch, ShapeError
from .groebner import GroebnerBasis
from .poly import Poly, mono_mul
from .quotient import QElem


class Matrix:
    """Immutable matrix with QElem entries over a fixed quotient ring."""

    __slots__ = ("basis", "nrows", "ncols", "rows", "_hash")

    def __init__(self, basis: GroebnerBasis, rows, nrows=None, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if nrows is None:
            nrows = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ShapeError("ragged matrix data")
        for r in rows:
            for e in r:
                if e.basis is not basis and e.basis != basis:
                    raise AmbientMismatch("matrix entry over a different ring")
        self.basis = basis
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self._hash = None

    # constructors --------------------------------------------------------

    @staticmethod
    def zeros(basis: GroebnerBasis, nrows: int, ncols: int) -> "Matrix":
        z = QElem.zero(basis)
        return Matrix(basis, [[z] * ncols for _ in range(nrows)], nrows, ncols)

    @staticmethod
    def identity(basis: GroebnerBasis, n: int) -> "Matrix":
        return Matrix.diagonal(basis, [QElem.one(basis)] * n)

    @staticmethod
    def diagonal(basis: GroebnerBasis, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        z = QElem.zero(basis)
        return Matrix(basis, [[entries[i] if i == j else z for j in range(n)]
                              for i in range(n)], n, n)

    # basic operations ------------------------------------------------------

    def _check_ring(self, other: "Matrix"):
        if self.basis != other.basis:
            raise AmbientMismatch("matrices over different rings")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("matrix addition shape mismatch")
        return Matrix(self.basis,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)],
                      self.nrows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("matrix subtraction shape mismatch")
        return Matrix(self.basis,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)],
                      self.nrows, self.ncols)

    def __neg__(self) -> "Matrix":
        return Matrix(self.basis, [[-a for a in r] for r in self.rows],
                      self.nrows, self.ncols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Sparse product: each output entry is summed in one term map and
        reduced once, and only when it is nonzero."""
        self._check_ring(other)
        if self.ncols != other.nrows:
            raise ShapeError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        basis = self.basis
        ambient = basis.ambient
        field = ambient.field
        add, mul = field.add, field.mul
        zero = QElem.zero(basis)
        # nonzero (column, terms) of each row of the right factor
        right = [[(j, e.rep.terms) for j, e in enumerate(row) if e.rep.terms]
                 for row in other.rows]
        out = []
        for row in self.rows:
            acc: dict = {}
            for a, right_row in zip(row, right):
                a_terms = a.rep.terms
                if not a_terms:
                    continue
                for j, b_terms in right_row:
                    terms = acc.get(j)
                    if terms is None:
                        terms = acc[j] = {}
                    for m1, c1 in a_terms.items():
                        for m2, c2 in b_terms.items():
                            m = mono_mul(m1, m2)
                            prev = terms.get(m)
                            terms[m] = (mul(c1, c2) if prev is None
                                        else add(prev, mul(c1, c2)))
            out_row = [zero] * other.ncols
            for j, terms in acc.items():
                poly = Poly(ambient, terms)
                if poly.terms:
                    out_row[j] = QElem(basis, poly)
            out.append(out_row)
        return Matrix(basis, out, self.nrows, other.ncols)

    def scale(self, c) -> "Matrix":
        return Matrix(self.basis, [[a.scale(c) for a in r] for r in self.rows],
                      self.nrows, self.ncols)

    def scale_elem(self, q: QElem) -> "Matrix":
        return Matrix(self.basis, [[a * q for a in r] for r in self.rows],
                      self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    # block assembly ----------------------------------------------------

    @staticmethod
    def block_diag(basis: GroebnerBasis, blocks) -> "Matrix":
        blocks = list(blocks)
        nrows = sum(b.nrows for b in blocks)
        ncols = sum(b.ncols for b in blocks)
        out = [[QElem.zero(basis)] * ncols for _ in range(nrows)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(b.ncols):
                    out[r0 + i][c0 + j] = b.rows[i][j]
            r0 += b.nrows
            c0 += b.ncols
        return Matrix(basis, out, nrows, ncols)

    # equality ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.basis == other.basis
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.basis, self.nrows, self.ncols, self.rows))
        return self._hash

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: [{body}])"


def rank_over_fraction_field(mat: Matrix) -> int:
    """Rank of ``mat`` over Frac(R); the ring must be an integral domain.

    Division-free elimination: ``row_i := pivot*row_i - entry*row_piv``.
    Scaling a row by a nonzero element keeps the rank over Frac(R), and in a
    domain the scaled pivot row stays nonzero.
    """
    rows = [list(r) for r in mat.rows]
    rank = 0
    for col in range(mat.ncols):
        pivot_row = next((i for i in range(rank, len(rows))
                          if not rows[i][col].is_zero()), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        top = rows[rank]
        pivot = top[col]
        for i in range(rank + 1, len(rows)):
            entry = rows[i][col]
            if not entry.is_zero():
                rows[i] = [pivot * v - entry * w for v, w in zip(rows[i], top)]
        rank += 1
    return rank


def scalar_value(e: QElem):
    """The constant value of an entry known to be a scalar."""
    if not e.rep.is_constant():
        raise ShapeError(f"entry {e} is not a scalar")
    return e.rep.constant_value()


def scalar_rref(field, rows) -> list:
    """Bring a list of scalar rows to reduced row echelon form, in place.

    Returns the pivot columns, which are exactly the greedy maximal
    independent set of columns (each column independent of those before it).
    """
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][col])
        top = rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                rows[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(row, top)]
        pivots.append(col)
    return pivots


def rank_factorization(mat: Matrix) -> tuple[Matrix, Matrix]:
    """``(C, R)`` with ``mat = C * R`` for a scalar matrix of rank r.

    ``C`` is the r pivot columns of ``mat`` and ``R`` the nonzero rows of
    its reduced row echelon form.  For an idempotent ``R * C`` is the r x r
    identity, since ``C`` has independent columns and ``R`` independent rows.
    """
    basis = mat.basis
    rows = [[scalar_value(e) for e in row] for row in mat.rows]
    pivots = scalar_rref(basis.ambient.field, rows)
    r = len(pivots)
    left = Matrix(basis, [[row[j] for j in pivots] for row in mat.rows], mat.nrows, r)
    right = Matrix(basis, [[QElem.const(basis, v) for v in row] for row in rows[:r]],
                   r, mat.ncols)
    return left, right
