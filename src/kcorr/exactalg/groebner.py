"""Buchberger's algorithm, reduced bases and canonical normal forms.

The reduced basis of an ideal is unique for a fixed ambient, so normal forms
give decidable equality in every quotient ring the rest of the package builds
on.  Buchberger runs with the coprime-leading-term pair skip only; inputs
throughout the system are desk scale (few variables, low degree).
"""

from __future__ import annotations

from ..errors import AmbientMismatch
from .poly import (Ambient, Poly, mono_coprime, mono_div, mono_divides,
                   mono_lcm, mono_mul)


def _divide_once(terms: dict, mono, coeff, g: Poly, field):
    """terms -= (coeff/lc(g)) * x^(mono/lm(g)) * g, in place."""
    glm, glc = g.sorted_terms()[0]
    factor_mono = mono_div(mono, glm)
    factor_coeff = field.div(coeff, glc)
    for m, c in g.terms.items():
        key = mono_mul(m, factor_mono)
        s = field.sub(terms.get(key, field.zero), field.mul(factor_coeff, c))
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)


def reduce_poly(f: Poly, gens) -> Poly:
    """Full remainder of multivariate division of ``f`` by ``gens``."""
    if f.is_zero() or not gens:
        return f
    ambient = f.ambient
    field = ambient.field
    key = ambient.key
    lead = [(g.leading_monomial(), g) for g in gens if not g.is_zero()]
    work = dict(f.terms)
    remainder: dict = {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        for glm, g in lead:
            if mono_divides(glm, mono):
                work[mono] = coeff
                _divide_once(work, mono, coeff, g, field)
                break
        else:
            remainder[mono] = coeff
    return Poly(ambient, remainder)


def _s_poly(f: Poly, g: Poly) -> Poly:
    ambient = f.ambient
    field = ambient.field
    flm, flc = f.sorted_terms()[0]
    glm, glc = g.sorted_terms()[0]
    lcm = mono_lcm(flm, glm)
    left = Poly(ambient, {mono_div(lcm, flm): field.inv(flc)}) * f
    right = Poly(ambient, {mono_div(lcm, glm): field.inv(glc)}) * g
    return left - right


def _interreduce(gens: list) -> list:
    gens = [g.monic() for g in gens if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            others = gens[:i] + gens[i + 1:]
            r = reduce_poly(gens[i], others)
            if r.is_zero():
                gens.pop(i)
                changed = True
                break
            r = r.monic()
            if r != gens[i]:
                gens[i] = r
                changed = True
                break
    return gens


class GroebnerBasis:
    """The reduced basis of an ideal; generators sorted for canonicity."""

    __slots__ = ("ambient", "gens", "_hash")

    def __init__(self, ambient: Ambient, gens):
        self.ambient = ambient
        key = ambient.key
        self.gens = tuple(sorted(gens, key=lambda g: key(g.leading_monomial())))
        self._hash = None

    def is_unit_ideal(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.gens)

    def normal_form(self, f: Poly) -> Poly:
        if f.ambient != self.ambient:
            raise AmbientMismatch(f"{f.ambient!r} vs basis over {self.ambient!r}")
        if not self.gens or f.is_zero():
            return f
        return reduce_poly(f, self.gens)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, GroebnerBasis) and self.ambient == other.ambient
                and self.gens == other.gens)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ambient, self.gens))
        return self._hash

    def __repr__(self):
        return f"GroebnerBasis([{', '.join(str(g) for g in self.gens)}])"


def buchberger(gens, ambient: Ambient | None = None) -> GroebnerBasis:
    """Unique reduced basis of the ideal generated by ``gens``.

    The empty list yields the zero ideal; any unit in the ideal collapses the
    basis to ``[1]``.  All generators must share one ambient.
    """
    gens = [g for g in gens if not g.is_zero()]
    if ambient is None:
        if not gens:
            raise AmbientMismatch("cannot infer ambient from an empty generator list")
        ambient = gens[0].ambient
    for g in gens:
        if g.ambient != ambient:
            raise AmbientMismatch(f"{g.ambient!r} vs {ambient!r}")

    basis = [g.monic() for g in gens]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        lm_i = basis[i].leading_monomial()
        lm_j = basis[j].leading_monomial()
        if mono_coprime(lm_i, lm_j):
            continue
        r = reduce_poly(_s_poly(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r.monic())
            k = len(basis) - 1
            pairs.extend((t, k) for t in range(k))
    return GroebnerBasis(ambient, _interreduce(basis))


def normal_form(f: Poly, basis: GroebnerBasis) -> Poly:
    return basis.normal_form(f)


def quotient_eq(f: Poly, g: Poly, basis: GroebnerBasis) -> bool:
    """Equality test in the quotient ring: f == g mod the ideal."""
    if f.ambient != basis.ambient or g.ambient != basis.ambient:
        raise AmbientMismatch("operands live over a different ambient than the basis")
    return basis.normal_form(f - g).is_zero()
