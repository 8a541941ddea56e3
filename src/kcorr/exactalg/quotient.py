"""Elements of quotient rings, stored as canonical normal forms.

Equality of two elements is plain data equality of their reduced
representatives, which is what makes every law in the package checkable as an
exact identity.
"""

from __future__ import annotations

from ..errors import AmbientMismatch
from .groebner import GroebnerBasis
from .poly import Poly


class QElem:
    """An element of ``k[vars]/I`` represented by its normal form."""

    __slots__ = ("basis", "rep", "_hash")

    def __init__(self, basis: GroebnerBasis, rep: Poly, *, reduced: bool = False):
        if rep.ambient != basis.ambient:
            raise AmbientMismatch(f"{rep.ambient!r} vs {basis.ambient!r}")
        self.basis = basis
        self.rep = rep if reduced else basis.normal_form(rep)
        self._hash = None

    # construction ------------------------------------------------------

    @staticmethod
    def zero(basis: GroebnerBasis) -> "QElem":
        # one shared zero per basis: no QElem or Poly is changed in place
        z = basis._zero
        if z is None:
            z = basis._zero = QElem(basis, Poly.zero(basis.ambient), reduced=True)
        return z

    @staticmethod
    def one(basis: GroebnerBasis) -> "QElem":
        return QElem(basis, Poly.one(basis.ambient))

    @staticmethod
    def const(basis: GroebnerBasis, c) -> "QElem":
        return QElem(basis, Poly.const(basis.ambient, c))

    @staticmethod
    def variable(basis: GroebnerBasis, name: str) -> "QElem":
        return QElem(basis, Poly.variable(basis.ambient, name))

    # ring operations -----------------------------------------------------

    def _check(self, other: "QElem"):
        if self.basis != other.basis:
            raise AmbientMismatch("elements of different quotient rings")

    def __add__(self, other: "QElem") -> "QElem":
        # terms of a normal form are irreducible, so sums stay reduced
        self._check(other)
        return QElem(self.basis, self.rep + other.rep, reduced=True)

    def __sub__(self, other: "QElem") -> "QElem":
        self._check(other)
        return QElem(self.basis, self.rep - other.rep, reduced=True)

    def __neg__(self) -> "QElem":
        return QElem(self.basis, -self.rep, reduced=True)

    def __mul__(self, other: "QElem") -> "QElem":
        self._check(other)
        return QElem(self.basis, self.rep * other.rep)

    def scale(self, c) -> "QElem":
        return QElem(self.basis, self.rep.scale(c), reduced=True)

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    # equality ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, QElem) and self.basis == other.basis
                and self.rep == other.rep)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.basis, self.rep))
        return self._hash

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return f"QElem({self.rep})"
