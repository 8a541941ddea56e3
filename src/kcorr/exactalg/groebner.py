"""Buchberger's algorithm, reduced bases and canonical normal forms.

The reduced basis of an ideal is unique for a fixed ambient, so normal forms
give decidable equality in every quotient ring the rest of the package builds
on.  Buchberger prunes its critical pairs with the criteria of Gebauer and
Möller (1988), in the UPDATE form of Becker and Weispfenning, *Gröbner Bases*
(1993), §5.5, and takes pairs by the normal strategy: smallest lcm first.

:func:`buchberger` runs the algorithm once per process for each distinct
generator list: equal lists over one ambient share one :class:`GroebnerBasis`
and its normal-form memos.  The table is never cleared; it holds one entry per
distinct list asked for, about 40 over ten ``laws`` benchmark rounds.
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
    """The reduced basis from a Gröbner basis ``gens`` of monic elements.

    Elements whose leading monomial another's divides are dropped (of equal
    leading monomials the first is kept); the survivors have pairwise
    non-dividing leading monomials, so one tail reduction each suffices.
    """
    lms = [g.leading_monomial() for g in gens]
    minimal = [g for i, g in enumerate(gens)
               if not any(mono_divides(lm, lms[i]) and (lm != lms[i] or j < i)
                          for j, lm in enumerate(lms) if j != i)]
    return [reduce_poly(g, minimal[:i] + minimal[i + 1:]).monic()
            for i, g in enumerate(minimal)]


class GroebnerBasis:
    """The reduced basis of an ideal; generators sorted for canonicity.

    Only :func:`buchberger` builds one, so ``gens`` is always a reduced
    basis; it returns one shared object per distinct generator list in a
    process, so the memos below fill once per ideal.  The normal form modulo
    a reduced basis is k-linear (Becker and Weispfenning, *Gröbner Bases*,
    1993, ch. 5), so :meth:`normal_form` sums ``c * NF(x^m)`` over the terms
    of its input and reduces each monomial once per basis: ``_monomial_nf``
    keeps ``NF(x^m)`` as a term map, filled on first use.  ``_standard``
    holds the memoized monomials that are their own normal form; a
    polynomial made only of them is returned as it is.  ``_zero`` keeps the
    ring's one zero element, which ``QElem.zero`` fills on first use.
    """

    __slots__ = ("ambient", "gens", "_hash", "_monomial_nf", "_standard", "_zero")

    def __init__(self, ambient: Ambient, gens):
        self.ambient = ambient
        key = ambient.key
        self.gens = tuple(sorted(gens, key=lambda g: key(g.leading_monomial())))
        self._hash = None
        self._monomial_nf: dict = {}
        self._standard: set = set()
        self._zero = None

    def normal_form(self, f: Poly) -> Poly:
        if f.ambient is not self.ambient:
            raise AmbientMismatch(f"{f.ambient!r} vs basis over {self.ambient!r}")
        if not self.gens or self._standard.issuperset(f.terms):
            return f
        ambient, gens, memo = self.ambient, self.gens, self._monomial_nf
        field = ambient.field
        add, mul, one = field.add, field.mul, field.one
        acc: dict = {}
        for mono, coeff in f.terms.items():
            image = memo.get(mono)
            if image is None:
                image = memo[mono] = reduce_poly(Poly(ambient, {mono: one}), gens).terms
                if image == {mono: one}:
                    self._standard.add(mono)
            for m, c in image.items():
                prev = acc.get(m)
                acc[m] = mul(coeff, c) if prev is None else add(prev, mul(coeff, c))
        return Poly(ambient, acc)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, GroebnerBasis) and self.ambient is other.ambient
                and self.gens == other.gens)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ambient, self.gens))
        return self._hash

    def __repr__(self):
        return f"GroebnerBasis([{', '.join(str(g) for g in self.gens)}])"


def _update(polys: list, kept: list, pairs: list, h: Poly):
    """Add ``h`` to the basis: the UPDATE of Gebauer and Möller.

    ``polys`` holds every element ever added, ``kept`` indexes the current
    basis and ``pairs`` holds ``(key(lcm), i, j, lcm)`` per pending pair.  New
    pairs ``(g, h)`` lose to another new pair whose lcm divides theirs
    (criteria M and F; a coprime pair still counts there) and then drop out
    if coprime; an old pair ``(i, j)`` goes when ``LM(h)`` divides its lcm and
    neither ``(i, h)`` nor ``(j, h)`` shares that lcm (criterion B); kept
    elements whose leading monomial ``LM(h)`` divides retire.
    """
    k = len(polys)
    polys.append(h)
    lms = [g.leading_monomial() for g in polys]
    lm_h = lms[k]
    new = [(mono_lcm(lms[i], lm_h), i) for i in kept]
    chosen = []
    for t, (lcm, i) in enumerate(new):
        if mono_coprime(lms[i], lm_h) or not any(
                mono_divides(other, lcm) for other, _ in new[t + 1:] + chosen):
            chosen.append((lcm, i))
    pairs[:] = [p for p in pairs
                if not mono_divides(lm_h, p[3])
                or mono_lcm(lms[p[1]], lm_h) == p[3]
                or mono_lcm(lms[p[2]], lm_h) == p[3]]
    key = h.ambient.key
    pairs.extend((key(lcm), i, k, lcm) for lcm, i in chosen
                 if not mono_coprime(lms[i], lm_h))
    kept[:] = [i for i in kept if not mono_divides(lm_h, lms[i])]
    kept.append(k)


_BASES: dict = {}


def buchberger(gens, ambient: Ambient | None = None) -> GroebnerBasis:
    """Unique reduced basis of the ideal generated by ``gens``.

    The basis depends only on the ambient and the generator list, so each
    distinct ``(ambient, nonzero generators)`` is computed once per process
    and every later call returns the same :class:`GroebnerBasis`, with its
    warm normal-form memos.  The table is never cleared: it holds one entry
    per distinct generator list asked for (about 40 over ten ``laws``
    benchmark rounds, 5 per ``kcorr run`` of a benchmark session).  The
    empty list yields the zero ideal; any unit in the ideal collapses the
    basis to ``[1]``.  All generators must share one ambient.
    """
    gens = [g for g in gens if not g.is_zero()]
    if ambient is None:
        if not gens:
            raise AmbientMismatch("cannot infer ambient from an empty generator list")
        ambient = gens[0].ambient
    for g in gens:
        if g.ambient is not ambient:
            raise AmbientMismatch(f"{g.ambient!r} vs {ambient!r}")
    key = (ambient, tuple(gens))
    basis = _BASES.get(key)
    if basis is None:
        basis = _BASES[key] = _buchberger(gens, ambient)
    return basis


def _buchberger(gens: list, ambient: Ambient) -> GroebnerBasis:
    """Buchberger's algorithm on nonzero ``gens`` over ``ambient``.

    Every generator, and every nonzero reduced S-polynomial, enters through
    the Gebauer–Möller update (:func:`_update`); pairs are taken smallest lcm
    first in the ambient order (the normal strategy), ties by index, and
    S-polynomials reduce against the kept elements only.
    """
    polys: list = []
    kept: list = []
    pairs: list = []
    for g in gens:
        _update(polys, kept, pairs, g.monic())
    while pairs:
        pair = min(pairs)
        pairs.remove(pair)
        _, i, j, _ = pair
        r = reduce_poly(_s_poly(polys[i], polys[j]), [polys[t] for t in kept])
        if not r.is_zero():
            _update(polys, kept, pairs, r.monic())
    return GroebnerBasis(ambient, _interreduce([polys[t] for t in kept]))


def normal_form(f: Poly, basis: GroebnerBasis) -> Poly:
    return basis.normal_form(f)


def quotient_eq(f: Poly, g: Poly, basis: GroebnerBasis) -> bool:
    """Equality test in the quotient ring: f == g mod the ideal."""
    if f.ambient is not basis.ambient or g.ambient is not basis.ambient:
        raise AmbientMismatch("operands live over a different ambient than the basis")
    return basis.normal_form(f - g).is_zero()
