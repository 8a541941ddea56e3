"""Deterministic randomized generators for objects, morphisms and maps.

Everything is driven by an explicit ``random.Random`` so identical seeds
reproduce identical values; no generator touches global state.  Objects are
built as base-change conjugates of diagonal models whose diagonal slots are
points of the target variety with coordinates in the base ring, which makes
every target relation hold slotwise by construction.  Where the target has
no relations the generator instead uses free polynomials in a single corner
element, which gives denser, less structured instances.  Conjugators are
products of elementary matrices, applied as column and row operations.

Points of a target with relations come from rejection sampling: each
candidate is a tuple of random polynomials, first evaluated at up to three
scalar points of the source in field arithmetic and skipped when a relation
is nonzero there, and only then reduced into k[x] for the exact check
(``broken_relation``).  The pre-check rejects only candidates the exact check
would reject and draws nothing, so the random stream is the same with or
without it.
"""

from __future__ import annotations

import functools
import random
from itertools import islice, product as iter_product

from .corrcat import (CorrMorphism, CorrObject, make_corr_morphism,
                      make_correspondence, zero_object)
from .errors import GenerationFailed
from .exactalg import Matrix, Poly, QElem
from .functors import AutObject, make_aut_object
from .values import Frozen, setfield
from .varieties import AffVariety, VarMorphism, broken_relation, make_morphism


def derive_seed(*parts) -> int:
    """Stable 64-bit child seed from arbitrary string/int parts."""
    import hashlib  # on first use, so `kcorr run` start-up skips it
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class GenBounds(Frozen):
    """Size knobs for the generators: ``max_n`` is the largest object size,
    ``max_deg`` the largest degree of a sampled polynomial, ``max_elementary``
    the most elementary factors in a conjugator, and ``zero_weight`` the
    chance that ``random_object`` returns the zero object."""

    def __init__(self, max_n: int = 3, max_deg: int = 2, max_elementary: int = 3,
                 zero_weight: float = 0.08):
        setfield(self, "max_n", max_n)
        setfield(self, "max_deg", max_deg)
        setfield(self, "max_elementary", max_elementary)
        setfield(self, "zero_weight", zero_weight)


# -- scalars and polynomials -------------------------------------------------


def random_scalar(field, rng: random.Random, nonzero: bool = False):
    pool = field.elements_sample()
    if nonzero:
        pool = tuple(c for c in pool if c)
    return rng.choice(pool)


def random_poly(x: AffVariety, rng: random.Random, max_deg: int = 2,
                max_terms: int = 2) -> Poly:
    ambient = x.ambient
    field = x.field
    terms: dict = {}
    width = len(ambient.vars)
    for _ in range(rng.randint(1, max_terms)):
        coeff = random_scalar(field, rng)
        mono = [0] * width
        for _ in range(rng.randint(0, max_deg) if width else 0):
            mono[rng.randrange(width)] += 1
        mono = tuple(mono)
        terms[mono] = field.add(terms.get(mono, field.zero), coeff)
    return Poly(ambient, terms)


# -- points of a variety with coordinates in another coordinate ring ---------

def _value_at(poly: Poly, coords):
    """``poly`` evaluated at the scalar point ``coords``, in field arithmetic."""
    field = poly.ambient.field
    total = field.zero
    for mono, coeff in poly.terms.items():
        for c, e in zip(coords, mono):
            if e:
                coeff = field.mul(coeff, c ** e)
        total = field.add(total, coeff)
    return total


def _is_point(y: AffVariety, coords) -> bool:
    """Whether the scalars ``coords`` satisfy every relation of ``y``."""
    return not any(_value_at(rel, coords) for rel in y.ideal_gens)


@functools.cache
def _scalar_points(y: AffVariety):
    """All k-points of ``y`` with coordinates in the small scalar sample pool."""
    combos = iter_product(y.field.elements_sample(), repeat=len(y.vars))
    return [combo for combo in combos if _is_point(y, combo)]


def _test_points(x: AffVariety):
    """The first three k-points of ``x`` in ``_scalar_points`` order.

    Without relations they are the first three tuples of scalars, so a free
    source (cyclic-4 over Q has 4,096 pool points) is never enumerated."""
    if x.ideal_gens:
        return _scalar_points(x)[:3]
    return list(islice(iter_product(x.field.elements_sample(), repeat=len(x.vars)), 3))


def _breaks_at(y: AffVariety, polys, coords) -> bool:
    """Whether the candidate ``polys`` break a relation of ``y`` at the
    k-point ``coords`` of their source."""
    return not _is_point(y, [_value_at(f, coords) for f in polys])


# random candidates tried before a point falls back to a scalar one
SAMPLE_BUDGET = 12


def sample_point(x: AffVariety, y: AffVariety, rng: random.Random, max_deg: int = 2):
    """A point of ``y`` with coordinates in k[x], as a tuple of QElem."""
    if not y.vars:
        return ()
    if not y.ideal_gens:
        return tuple(x.qelem(random_poly(x, rng, max_deg)) for _ in y.vars)
    # evaluation at a k-point of x is a ring map k[x] -> k, so a candidate
    # that breaks a relation of y there breaks it in k[x] too
    points = _test_points(x)
    for _ in range(SAMPLE_BUDGET):
        polys = [random_poly(x, rng, max_deg) for _ in y.vars]
        if any(_breaks_at(y, polys, coords) for coords in points):
            continue
        candidate = tuple(x.qelem(f) for f in polys)
        if broken_relation(x, y, candidate) is None:
            return candidate
    scalars = _scalar_points(y)
    if not scalars:
        raise GenerationFailed(
            f"no point of {y.name} found within budget (no scalar solutions)")
    combo = rng.choice(scalars)
    return tuple(x.qelem(Poly.const(x.ambient, c)) for c in combo)


def sample_map(x: AffVariety, y: AffVariety, rng: random.Random,
               max_deg: int = 2) -> VarMorphism:
    """A random validated morphism x -> y (a k[x]-point of y)."""
    return make_morphism(x, y, sample_point(x, y, rng, max_deg))


# -- invertible conjugators ----------------------------------------------------


def random_conjugator(x: AffVariety, n: int, rng: random.Random,
                      bounds: GenBounds):
    """A product of elementary matrices over k[x], with its exact inverse.
    Each factor ``1 + lam*E_ij`` adds ``lam`` times column ``i`` of ``u`` to
    column ``j``, and its inverse subtracts ``lam`` times row ``j`` of
    ``u_inv`` from row ``i``."""
    basis = x.gb
    one, zero = QElem.one(basis), QElem.zero(basis)
    u = [[one if r == c else zero for c in range(n)] for r in range(n)]
    u_inv = [[one if r == c else zero for c in range(n)] for r in range(n)]
    for _ in range(rng.randint(0, bounds.max_elementary) if n >= 2 else 0):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        lam = x.qelem(random_poly(x, rng, max(1, bounds.max_deg - 1), 1))
        for row in u:
            row[j] = row[j] + lam * row[i]
        u_inv[i] = [a - lam * b for a, b in zip(u_inv[i], u_inv[j])]
    return Matrix(basis, u, n, n), Matrix(basis, u_inv, n, n)


# -- objects -------------------------------------------------------------------


def _padded_diagonal(basis, entries: list, n: int) -> Matrix:
    """The n x n diagonal matrix of ``entries`` followed by zeros."""
    return Matrix.diagonal(basis, entries + [QElem.zero(basis)] * (n - len(entries)))


def _random_corner(x: AffVariety, p: Matrix, rng: random.Random) -> Matrix:
    """``p*raw*p`` for a square ``raw`` of random polynomials, drawn row by row."""
    n = p.nrows
    raw = Matrix(x.gb, [[x.qelem(random_poly(x, rng, 1, 1)) for _ in range(n)]
                        for _ in range(n)], n, n)
    return p * raw * p


def _diagonal_model(x: AffVariety, y: AffVariety, n: int, rank: int,
                    rng: random.Random, bounds: GenBounds):
    """Diagonal idempotent and per-slot target points, before conjugation."""
    p = _padded_diagonal(x.gb, [QElem.one(x.gb)] * rank, n)
    slots = [sample_point(x, y, rng, bounds.max_deg) for _ in range(rank)]
    gen_mats = [_padded_diagonal(x.gb, [slot[j] for slot in slots], n)
                for j in range(len(y.vars))]
    return p, gen_mats


def _corner_polynomial_model(x: AffVariety, y: AffVariety, n: int, rank: int,
                             rng: random.Random, bounds: GenBounds):
    """Commuting actions as polynomials in one corner element.

    Only sound when the target has no relations to satisfy.
    """
    p = _padded_diagonal(x.gb, [QElem.one(x.gb)] * rank, n)
    corner = _random_corner(x, p, rng)
    gen_mats = []
    for _ in y.vars:
        acc = p.scale(random_scalar(x.field, rng))
        power = corner
        for _ in range(rng.randint(0, 2)):
            acc = acc + power.scale(random_scalar(x.field, rng))
            power = power * corner
        gen_mats.append(acc)
    return p, gen_mats


def random_object(x: AffVariety, y: AffVariety, seed=None,
                  bounds: GenBounds = GenBounds(),
                  rng: random.Random | None = None) -> CorrObject:
    """Deterministic random validated object over (x, y)."""
    if rng is None:
        rng = random.Random(derive_seed("object", seed))
    if rng.random() < bounds.zero_weight:
        return zero_object(x, y)
    n = rng.randint(1, bounds.max_n)
    rank = rng.randint(0, n)
    if y.ideal_gens or rng.random() < 0.5:
        p, gen_mats = _diagonal_model(x, y, n, rank, rng, bounds)
    else:
        p, gen_mats = _corner_polynomial_model(x, y, n, rank, rng, bounds)
    u, u_inv = random_conjugator(x, n, rng, bounds)
    return conjugate_object(CorrObject(x, y, n, p, tuple(gen_mats)), u, u_inv)


def conjugate_object(obj: CorrObject, u: Matrix, u_inv: Matrix) -> CorrObject:
    return make_correspondence(obj.X, obj.Y, obj.n, u * obj.p * u_inv,
                               [u * a * u_inv for a in obj.gen_images])


def random_endo_matrix(obj: CorrObject, rng: random.Random) -> Matrix:
    """A matrix commuting with the actions and fixed by the corner."""
    if obj.n == 0:
        return Matrix.zeros(obj.X.gb, 0, 0)
    if not obj.gen_images:
        return _random_corner(obj.X, obj.p, rng)
    acc = obj.p.scale(random_scalar(obj.X.field, rng))
    for a in obj.gen_images:
        acc = acc + a.scale(random_scalar(obj.X.field, rng))
    if rng.random() < 0.5:
        acc = acc + (obj.gen_images[0] * obj.gen_images[-1]).scale(
            random_scalar(obj.X.field, rng))
    return acc


def random_morphism_from(obj: CorrObject, rng: random.Random,
                         bounds: GenBounds = GenBounds()) -> CorrMorphism:
    """A validated morphism out of ``obj`` into a conjugate of it."""
    u, u_inv = random_conjugator(obj.X, obj.n, rng, bounds)
    dst = conjugate_object(obj, u, u_inv)
    mat = u * random_endo_matrix(obj, rng)
    return make_corr_morphism(obj, dst, mat)


def random_endomorphism(obj: CorrObject, rng: random.Random) -> CorrMorphism:
    return make_corr_morphism(obj, obj, random_endo_matrix(obj, rng))


def random_aut_object(x: AffVariety, y: AffVariety, arity: int,
                      seed=None, bounds: GenBounds = GenBounds(),
                      rng: random.Random | None = None) -> AutObject:
    """Random base object with ``arity`` certified commuting automorphisms.

    Witness pairs come from invertible scalar diagonals conjugated by the
    same frame as the base object, so inverses are free.
    """
    if rng is None:
        rng = random.Random(derive_seed("aut", seed))
    n = rng.randint(1, bounds.max_n)
    rank = rng.randint(0, n)
    p, gen_mats = _diagonal_model(x, y, n, rank, rng, bounds)
    field = x.field
    basis = x.gb
    theta_diags = []
    for _ in range(arity):
        lams = [random_scalar(field, rng, nonzero=True) for _ in range(rank)]
        fwd = _padded_diagonal(basis, [QElem.const(basis, c) for c in lams], n)
        bwd = _padded_diagonal(basis, [QElem.const(basis, field.inv(c)) for c in lams], n)
        theta_diags.append((fwd, bwd))
    u, u_inv = random_conjugator(x, n, rng, bounds)
    base = conjugate_object(CorrObject(x, y, n, p, tuple(gen_mats)), u, u_inv)
    thetas = [(make_corr_morphism(base, base, u * fwd * u_inv),
               make_corr_morphism(base, base, u * bwd * u_inv))
              for fwd, bwd in theta_diags]
    return make_aut_object(base, thetas)
