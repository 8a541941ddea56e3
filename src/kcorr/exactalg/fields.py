"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain Python values, so all arithmetic is exact by construction.
Over F_p a scalar is a canonical residue ``0..p-1``.  Over Q it is an ``int``
when integral and a ``fractions.Fraction`` otherwise: ``zero``, ``one``, the
constructors and ``inv`` follow that rule, and ``int`` arithmetic stays
``int``.  Arithmetic on ``Fraction``s may still give an integral
``Fraction``, which compares, hashes and prints like the equal ``int``.
Field objects are immutable tags bundling the operations.  There is one
instance per field (``PrimeField`` interns by ``p``, ``RationalField`` is a
singleton), so fields compare and hash by identity.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from ..errors import InvalidField


# Miller-Rabin with these bases is exact below 3.18 * 10^23 (Sorenson and
# Webster 2015), far past the 2^64 bound on a prime field's modulus
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_MODULUS = 2 ** 64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < 3.18 * 10^23."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of coefficient fields; instances are value-like tags."""

    def __repr__(self):
        return self.name

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a) -> str:
        return str(a)

    def elements_sample(self):
        """A small fixed pool of scalars, built once per field; the random
        generators draw from it, so its values and order pin their streams."""
        return self._sample


class RationalField(Field):
    name = "Q"
    zero = 0
    one = 1
    _sample = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3)

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def from_int(self, n):
        return n

    def from_fraction(self, num, den):
        if den == 0:
            raise InvalidField("zero denominator in rational literal")
        q = Fraction(num, den)
        return q.numerator if q.denominator == 1 else q

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0 in Q")
        # never ``1 / a``, which is a float when ``a`` is an ``int``
        return self.from_fraction(a.denominator, a.numerator)


class PrimeField(Field):
    _instances: dict[int, "PrimeField"] = {}

    def __new__(cls, p: int):
        inst = cls._instances.get(p)
        if inst is None:
            if p >= _MAX_MODULUS:
                raise InvalidField(f"{p} is too large; a prime field needs p < 2^64")
            if not _is_prime(p):
                raise InvalidField(f"{p} is not prime")
            inst = super().__new__(cls)
            inst.p = p
            inst.name = f"F{p}"
            inst.zero = 0
            inst.one = 1 % p
            inst._sample = tuple(c % p for c in (range(p) if p <= 7 else range(-3, 4)))
            cls._instances[p] = inst
        return inst

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, num, den):
        if den % self.p == 0:
            raise InvalidField(f"zero denominator in F{self.p} literal")
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F{self.p}")
        return pow(a, self.p - 2, self.p)


QQ = RationalField()


def parse_field(text: str) -> Field:
    """Parse a field spec: ``Q`` or ``Fp:P`` (also accepts ``F5``-style)."""
    text = text.strip()
    if text == "Q":
        return QQ
    digits = text[3:] if text.startswith("Fp:") else text[1:] if text.startswith("F") else ""
    digits = digits.strip()
    if digits.isdecimal():
        size = len(digits.lstrip("0"))
        if size > len(str(_MAX_MODULUS)):  # refused before int() reads it
            raise InvalidField(f"a {size}-digit modulus is too large; "
                               "a prime field needs p < 2^64")
        return PrimeField(int(digits))
    raise InvalidField(f"unknown field spec {text!r}")
