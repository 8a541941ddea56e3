"""Multivariate polynomials with exact coefficients and a fixed monomial order.

Monomials are exponent tuples indexed by the ambient variable list.  There
is one ``Ambient`` per ``(variables, field, order)``, so ambients compare by
identity.  A polynomial is an immutable term map; its canonical form (terms
sorted descending in the ambient order) is what printing and hashing use.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from ..errors import AmbientMismatch, InvalidArity, UnknownVariable
from .fields import Field

LEX = "lex"
DEGREVLEX = "degrevlex"


def _lex_key(mono):
    return mono


def _degrevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


ORDER_KEYS = {LEX: _lex_key, DEGREVLEX: _degrevlex_key}


# -- monomial helpers (exponent tuples) --------------------------------

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True when a | b, i.e. every exponent of a is <= that of b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class Ambient:
    """A variable list, a coefficient field and a monomial order.

    There is one instance per ``(variables, field, order)``, the way
    ``PrimeField`` interns by ``p``, so ambients compare and hash by
    identity.  Only valid ambients are stored, so duplicate variables and
    an unknown order raise on every call.
    """

    __slots__ = ("vars", "field", "order", "_key", "_index")

    _instances: dict = {}

    def __new__(cls, variables, field: Field, order: str = DEGREVLEX):
        variables = tuple(variables)
        inst = cls._instances.get((variables, field, order))
        if inst is None:
            if len(set(variables)) != len(variables):
                raise InvalidArity(f"duplicate variables in {variables}")
            key = ORDER_KEYS.get(order)
            if key is None:
                raise InvalidArity(f"unknown monomial order {order!r}")
            inst = super().__new__(cls)
            inst.vars = variables
            inst.field = field
            inst.order = order
            inst._key = key
            inst._index = {v: i for i, v in enumerate(variables)}
            cls._instances[variables, field, order] = inst
        return inst

    def __repr__(self):
        return f"Ambient({list(self.vars)}, {self.field}, {self.order})"

    def key(self, mono):
        return self._key(mono)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(f"variable {name!r} not in {self.vars}") from None

    def unit_mono(self):
        return (0,) * len(self.vars)


def _check_same(a: Ambient, b: Ambient):
    if a is not b:
        raise AmbientMismatch(f"{a!r} vs {b!r}")


class Poly:
    """Immutable sparse polynomial over a fixed ambient."""

    __slots__ = ("ambient", "terms", "_sorted")

    def __init__(self, ambient: Ambient, terms: dict):
        # terms: mono -> nonzero scalar; zero coefficients are dropped here
        self.ambient = ambient
        self.terms = {m: c for m, c in terms.items() if c}
        self._sorted = None

    # construction ------------------------------------------------------

    @staticmethod
    def zero(ambient: Ambient) -> "Poly":
        return Poly(ambient, {})

    @staticmethod
    def const(ambient: Ambient, c) -> "Poly":
        """The constant ``c``; an ``int`` or ``Fraction`` is reduced into the field."""
        field = ambient.field
        if isinstance(c, int):
            c = field.from_int(c)
        elif isinstance(c, Fraction):
            c = field.from_fraction(c.numerator, c.denominator)
        return Poly(ambient, {ambient.unit_mono(): c})

    @staticmethod
    def one(ambient: Ambient) -> "Poly":
        return Poly.const(ambient, ambient.field.one)

    @staticmethod
    def variable(ambient: Ambient, name: str) -> "Poly":
        i = ambient.index_of(name)
        mono = tuple(1 if j == i else 0 for j in range(len(ambient.vars)))
        return Poly(ambient, {mono: ambient.field.one})

    # canonical views ----------------------------------------------------

    def sorted_terms(self):
        """Terms as ((mono, coeff), ...) descending in the ambient order."""
        if self._sorted is None:
            key = self.ambient.key
            self._sorted = tuple(
                sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True))
        return self._sorted

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1
                                  and self.ambient.unit_mono() in self.terms)

    def constant_value(self):
        return self.terms.get(self.ambient.unit_mono(), self.ambient.field.zero)

    def leading_monomial(self):
        if not self.terms:
            raise InvalidArity("zero polynomial has no leading term")
        return self.sorted_terms()[0][0]

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    # arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _check_same(self.ambient, other.ambient)
        field = self.ambient.field
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = field.add(acc.get(m, field.zero), c)
        return Poly(self.ambient, acc)

    def __neg__(self) -> "Poly":
        field = self.ambient.field
        return Poly(self.ambient, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same(self.ambient, other.ambient)
        if not self.terms or not other.terms:
            return Poly.zero(self.ambient)
        field = self.ambient.field
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                acc[m] = field.add(acc.get(m, field.zero), field.mul(c1, c2))
        return Poly(self.ambient, acc)

    def scale(self, c) -> "Poly":
        if not c:
            return Poly.zero(self.ambient)
        field = self.ambient.field
        return Poly(self.ambient, {m: field.mul(c, v) for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise InvalidArity("negative polynomial power")
        result = Poly.one(self.ambient)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def monic(self) -> "Poly":
        c = self.leading_coefficient()
        return self.scale(self.ambient.field.inv(c))

    # substitution --------------------------------------------------------

    def substitute(self, images: dict, target: Ambient) -> "Poly":
        """Evaluate at ``var -> Poly over target``; missing vars are an error."""
        if target.field != self.ambient.field:
            raise AmbientMismatch("substitution cannot change the field")
        for v in self.ambient.vars:
            if v not in images:
                raise UnknownVariable(f"no image supplied for {v!r}")
        img = [images[v] for v in self.ambient.vars]
        powers: list[dict[int, Poly]] = [dict() for _ in img]
        result = Poly.zero(target)
        for mono, coeff in self.terms.items():
            term = Poly.const(target, coeff)
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                cache = powers[i]
                if e not in cache:
                    cache[e] = img[i] ** e
                term = term * cache[e]
            result = result + term
        return result

    def rename(self, var_map: dict, target: Ambient) -> "Poly":
        """Transport along an injective renaming of variables."""
        positions = [target.index_of(var_map[v]) for v in self.ambient.vars]
        width = len(target.vars)
        out = {}
        for mono, coeff in self.terms.items():
            new = [0] * width
            for i, e in enumerate(mono):
                if e:
                    new[positions[i]] = e
            out[tuple(new)] = coeff
        return Poly(target, out)

    # equality / hashing / printing ----------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ambient is other.ambient
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ambient, self.sorted_terms()))

    def _mono_str(self, mono) -> str:
        parts = []
        for v, e in zip(self.ambient.vars, mono):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ambient.field
        chunks = []
        for i, (mono, coeff) in enumerate(self.sorted_terms()):
            mono_s = self._mono_str(mono)
            c_str = field.format(coeff)
            negative = c_str.startswith("-")
            mag = c_str[1:] if negative else c_str
            if mono_s:
                body = mono_s if mag == "1" else f"{mag}*{mono_s}"
            else:
                body = mag
            if i == 0:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Poly({self})"
