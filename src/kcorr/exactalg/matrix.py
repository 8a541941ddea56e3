"""Exact matrices over quotient rings, plus the linear algebra the package
needs: block assembly and two eliminations.

A matrix keeps only its nonzero entries, keyed by position, and every entry
it stores is ring-checked; its dense ``rows`` are a view built on first
read, for printing and the eliminations.

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
    """Immutable matrix with QElem entries over a fixed quotient ring.

    A matrix stores its nonzero entries only: ``entries`` maps each
    ``(row, column)`` where the matrix is nonzero to its entry.  Every
    stored entry has passed the ring check.  ``rows`` is a dense view, a
    tuple of row tuples with the basis's shared zero at every other
    position; it is built the first time something reads it and then kept.
    The kernel operations below read and build ``entries`` only, so none of
    them touches a zero.
    """

    __slots__ = ("basis", "nrows", "ncols", "entries", "_rows")

    def __init__(self, basis: GroebnerBasis, rows, nrows=None, ncols=None):
        """``rows`` is either dense rows or a dict of entries keyed by
        ``(row, column)``, for which ``nrows`` and ``ncols`` are required.
        Zero entries are dropped; entries over another ring raise
        ``AmbientMismatch`` and positions outside the shape ``ShapeError``."""
        entries = {}
        if isinstance(rows, dict):
            if nrows is None or ncols is None:
                raise ShapeError("a matrix given by its entries needs its shape")
            for (i, j), e in rows.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ShapeError(
                        f"entry ({i}, {j}) outside a {nrows}x{ncols} matrix")
                if e.basis is not basis and e.basis != basis:
                    raise AmbientMismatch("matrix entry over a different ring")
                if e.rep.terms:
                    entries[i, j] = e
        else:
            rows = [tuple(r) for r in rows]
            if nrows is None:
                nrows = len(rows)
            if ncols is None:
                ncols = len(rows[0]) if rows else 0
            if len(rows) != nrows or any(len(r) != ncols for r in rows):
                raise ShapeError("ragged matrix data")
            for i, r in enumerate(rows):
                for j, e in enumerate(r):
                    if e.basis is not basis and e.basis != basis:
                        raise AmbientMismatch("matrix entry over a different ring")
                    if e.rep.terms:
                        entries[i, j] = e
        self.basis = basis
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries
        self._rows = None

    @property
    def rows(self) -> tuple:
        """The dense rows, built on first read."""
        if self._rows is None:
            zero = QElem.zero(self.basis)
            dense = [[zero] * self.ncols for _ in range(self.nrows)]
            for (i, j), e in self.entries.items():
                dense[i][j] = e
            self._rows = tuple(map(tuple, dense))
        return self._rows

    # constructors --------------------------------------------------------

    @staticmethod
    def zeros(basis: GroebnerBasis, nrows: int, ncols: int) -> "Matrix":
        return Matrix(basis, {}, nrows, ncols)

    @staticmethod
    def identity(basis: GroebnerBasis, n: int) -> "Matrix":
        return Matrix.diagonal(basis, [QElem.one(basis)] * n)

    @staticmethod
    def diagonal(basis: GroebnerBasis, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return Matrix(basis, {(i, i): e for i, e in enumerate(entries)}, n, n)

    # basic operations ------------------------------------------------------

    def _check_ring(self, other: "Matrix"):
        if self.basis != other.basis:
            raise AmbientMismatch("matrices over different rings")

    def _map(self, f) -> "Matrix":
        """The matrix of ``f(entry)`` at each nonzero entry; f(0) must be 0."""
        return Matrix(self.basis, {pos: f(e) for pos, e in self.entries.items()},
                      self.nrows, self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("matrix addition shape mismatch")
        out = dict(self.entries)
        for pos, b in other.entries.items():
            a = out.get(pos)
            out[pos] = b if a is None else a + b
        return Matrix(self.basis, out, self.nrows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("matrix subtraction shape mismatch")
        out = dict(self.entries)
        for pos, b in other.entries.items():
            a = out.get(pos)
            out[pos] = -b if a is None else a - b
        return Matrix(self.basis, out, self.nrows, self.ncols)

    def __neg__(self) -> "Matrix":
        return self._map(QElem.__neg__)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Sparse product: the right factor's entries are grouped by row
        once, each output entry is summed in one term map and reduced once,
        and only when it is nonzero."""
        self._check_ring(other)
        if self.ncols != other.nrows:
            raise ShapeError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        basis = self.basis
        ambient = basis.ambient
        field = ambient.field
        add, mul = field.add, field.mul
        # (column, terms) of the right factor's entries in each row
        right: dict = {}
        for (k, j), b in other.entries.items():
            right_row = right.get(k)
            if right_row is None:
                right_row = right[k] = []
            right_row.append((j, b.rep.terms))
        acc: dict = {}
        for (i, k), a in self.entries.items():
            right_row = right.get(k)
            if right_row is None:
                continue
            a_terms = a.rep.terms
            for j, b_terms in right_row:
                terms = acc.get((i, j))
                if terms is None:
                    terms = acc[i, j] = {}
                for m1, c1 in a_terms.items():
                    for m2, c2 in b_terms.items():
                        m = mono_mul(m1, m2)
                        prev = terms.get(m)
                        terms[m] = (mul(c1, c2) if prev is None
                                    else add(prev, mul(c1, c2)))
        out = {}
        for pos, terms in acc.items():
            poly = Poly(ambient, terms)
            if poly.terms:
                out[pos] = QElem(basis, poly)
        return Matrix(basis, out, self.nrows, other.ncols)

    def scale(self, c) -> "Matrix":
        return self._map(lambda a: a.scale(c))

    def scale_elem(self, q: QElem) -> "Matrix":
        return self._map(lambda a: a * q)

    def is_zero(self) -> bool:
        return not self.entries

    def __getitem__(self, idx):
        i, j = idx
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.nrows}x{self.ncols} matrix")
        e = self.entries.get((i, j))
        return QElem.zero(self.basis) if e is None else e

    # block assembly ----------------------------------------------------

    @staticmethod
    def block_diag(basis: GroebnerBasis, blocks) -> "Matrix":
        out = {}
        r0 = c0 = 0
        for b in blocks:
            for (i, j), e in b.entries.items():
                out[r0 + i, c0 + j] = e
            r0 += b.nrows
            c0 += b.ncols
        return Matrix(basis, out, r0, c0)

    # equality ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.basis == other.basis
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __hash__(self):
        # a frozenset, so the order the entries were stored in does not count
        return hash((self.basis, self.nrows, self.ncols,
                     frozenset(self.entries.items())))

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
