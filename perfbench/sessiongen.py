"""Seeded session files for the ``session`` workload.

Each file declares one variety from a bounded catalogue of presentations,
small targets whose relations have degree 3, maps, correspondences over the
catalogue variety's quotient ring, morphisms and an ``aut`` tuple, then runs
every session command once.  Objects are generated over the *free* ring on
the catalogue variables: the quotient map is a ring homomorphism, so they
stay valid over the quotient, and set-up never has to compute a Groebner
basis of a catalogue ideal.  The CLI process reduces every entry itself.

The session format has no monomial-order field, so every presentation is
read in degrevlex; the lex-ordered generator sets (the parametric twisted
cubic, the golden ``lex-inverse-pair``) enter as generator sets only.
"""

from __future__ import annotations

import random

from kcorr import QQ, gm_power, make_variety, point
from kcorr.corrcat import make_correspondence
from kcorr.exactalg import Matrix, Poly, PrimeField, QElem
from kcorr.randomgen import (GenBounds, derive_seed, random_aut_object,
                             random_conjugator, random_morphism_from,
                             random_object, random_poly, sample_map)
from kcorr.session import (format_corr_block, format_field, format_map_block,
                           format_matrix, format_morphism_block,
                           format_variety_block)

F5 = PrimeField(5)

# name -> (variables, generators).  Golden ideals come from the golden-basis
# test data; katsura4 runs over prime fields only (see the known limits).
CATALOGUE = {
    "cyclic3": (["a", "b", "c"],
                ["a + b + c", "a*b + b*c + c*a", "a*b*c - 1"]),
    "cyclic4": (["a", "b", "c", "d"],
                ["a + b + c + d", "a*b + b*c + c*d + d*a",
                 "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]),
    "katsura3": (["u0", "u1", "u2"],
                 ["u0 + 2*u1 + 2*u2 - 1", "u0^2 + 2*u1^2 + 2*u2^2 - u0",
                  "2*u0*u1 + 2*u1*u2 - u1"]),
    "katsura4": (["u0", "u1", "u2", "u3"],
                 ["u0 + 2*u1 + 2*u2 + 2*u3 - 1",
                  "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
                  "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
                  "u1^2 + 2*u0*u2 + 2*u1*u3 - u2"]),
    "twisted_param": (["x", "y", "z"], ["y - x^2", "z - x^3"]),
    "twisted_minors": (["x", "y", "z"], ["x^2 - y", "x*y - z", "y^2 - x*z"]),
    "lex_inverse_pair": (["x", "y"], ["x^2 - y", "x*y - 1"]),
    "circle_diagonal": (["x", "y"], ["x^2 + y^2 - 1", "x - y"]),
    "symmetric_cubic": (["x", "y", "z"], ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"]),
    "char5_mixed": (["x", "y"], ["x^3 - x", "x^2*y - y^2"]),
    "torus_slice": (["t", "s", "u"], ["t*s - 1", "t^2 + s^2 - u"]),
}
PRIME_ONLY = frozenset({"katsura4"})

BOUNDS = GenBounds(max_n=2, max_deg=2, max_elementary=2, zero_weight=0.0)
K0_BOUNDS = GenBounds(max_n=3, max_deg=1, max_elementary=2, zero_weight=0.1)


def pool_entries():
    """(field, catalogue name) for each pool slot; fields alternate F5, Q.

    Each field runs every presentation once; over Q the katsura4 slot runs
    cyclic4 instead, so the slow tail holds enough samples for a steady
    90th percentile.
    """
    entries = []
    for name in CATALOGUE:
        entries.append((F5, name))
        entries.append((QQ, "cyclic4" if name in PRIME_ONLY else name))
    return entries


def _object(x, y, rng, bounds=BOUNDS, min_n=1):
    obj = random_object(x, y, rng=rng, bounds=bounds)
    while obj.n < min_n:
        obj = random_object(x, y, rng=rng, bounds=bounds)
    return obj


def _cusp_object(x, cusp, rng):
    """A rank-r object over (x, Cusp) whose slots are points (q^2, q^3)."""
    basis = x.gb
    n = 2
    rank = rng.randint(1, n)
    zero = QElem.zero(basis)
    qs = [x.qelem(random_poly(x, rng, 1, 2)) for _ in range(rank)]
    p = Matrix.diagonal(basis, [QElem.one(basis)] * rank + [zero] * (n - rank))
    ys = Matrix.diagonal(basis, [q * q for q in qs] + [zero] * (n - rank))
    zs = Matrix.diagonal(basis, [q * q * q for q in qs] + [zero] * (n - rank))
    u, u_inv = random_conjugator(x, n, rng, BOUNDS)
    return make_correspondence(x, cusp, n, u * p * u_inv,
                               [u * ys * u_inv, u * zs * u_inv])


def _poly_text(x, rng, top):
    """A polynomial in one variable with a forced leading power ``top``."""
    lower = random_poly(x, rng, top - 1, 2)
    lead = Poly.variable(x.ambient, x.vars[0]) ** top
    return str(lead + lower)


def generate_session(field, name: str, rng: random.Random) -> str:
    variables, gens = CATALOGUE[name]
    v_decl = make_variety(name, variables, [], field)   # free ring, same names
    a1 = make_variety("A1", ["x"], [], field)
    t3 = make_variety("T3", ["y"], ["y^3 - y"], field)
    cusp = make_variety("Cusp", ["y", "z"], ["y^3 - z^2"], field)
    gm1 = gm_power(1, field)
    pt = point(field)

    lines = ["format 1", format_field(field),
             format_variety_block(pt), format_variety_block(a1),
             format_variety_block(gm1),
             f"variety {name} {{ vars = [{', '.join(variables)}]; "
             f"ideal = [{', '.join(gens)}] }}",
             format_variety_block(t3), format_variety_block(cusp)]

    g = sample_map(v_decl, a1, rng, 2)
    s = sample_map(a1, a1, rng, 2)
    q = random_poly(a1, rng, 1, 2)
    lines += [
        format_map_block("g", g),
        format_map_block("s", s),
        f"map h : T3 -> A1 {{ x = {_poly_text(t3, rng, 4)} }}",
        f"map c : A1 -> Cusp {{ y = {q ** 2}; z = {q ** 3} }}",
    ]

    cv = _object(v_decl, t3, rng, min_n=2)
    mor = random_morphism_from(cv, rng, BOUNDS)
    cc = _cusp_object(v_decl, cusp, rng)
    d = _object(v_decl, a1, rng)
    e = _object(a1, t3, rng)
    r = _object(a1, gm1, rng)
    aut = random_aut_object(a1, t3, 1, rng=rng, bounds=BOUNDS)
    (theta, theta_inv), = aut.thetas
    k0_objs = [random_object(pt, pt, rng=rng, bounds=K0_BOUNDS) for _ in range(4)]
    lines += [
        format_corr_block("CV", cv),
        format_corr_block("CV2", mor.dst),
        format_morphism_block("M", mor, "CV", "CV2"),
        format_corr_block("CC", cc),
        format_corr_block("D", d),
        format_corr_block("E", e),
        format_corr_block("R", r),
        format_corr_block("B", aut.base),
        format_morphism_block("TH", theta, "B", "B"),
        format_morphism_block("THI", theta_inv, "B", "B"),
        "aut AU { base = B; theta = [TH]; theta_inv = [THI] }",
    ]
    lines += [format_corr_block(f"P{i}", obj) for i, obj in enumerate(k0_objs, 1)]
    lines += [
        "validate",
        "compose D E",
        "pullback g E",
        "pushforward h CV",
        "pushforward c D",
        "box s E",
        "rho R",
        "rho-inv AU",
        "k0 P1 P2 P3 P4",
        f"compare-bimodule CV CV2 {format_matrix(mor.mat)}",
    ]
    return "\n".join(lines) + "\n"


def generate_pool(seed: int):
    """The seeded session texts of one run, in pool order."""
    return [generate_session(field, name,
                             random.Random(derive_seed("bench-session", seed, j)))
            for j, (field, name) in enumerate(pool_entries())]
