"""Functorial calculus on correspondence categories.

Pullback and pushforward along a variety morphism are composition with its
graph: base change along f is ``compose_objects(graph_object(f), obj)`` and
relabelling the target along g is ``compose_objects(obj, graph_object(g))``.
The box product extends a correspondence over (X, X') to one over
(X x U, X' x U') along a morphism U -> U'; it and the pullback of
automorphisms move matrices through a graph as well (``pull_matrices``).
Trailing torus coordinates in the target can be split off into certified
commuting automorphisms and merged back - a category isomorphism that is
exact on data for product-shaped targets.  Every value built here is
derived, so corrcat's ``_trusted`` constructors check it in debug mode only.
"""

from __future__ import annotations

from .corrcat import (CorrMorphism, CorrObject, IsoCertificate, graph_object,
                      identity_morphism, verify_iso, _trusted, _trusted_morphism,
                      _trusted_object)
from .errors import InvalidArity, InvalidCertificate, ShapeError
from .pairing import compose_objects, compose_morphisms, pull_matrices
from .values import Frozen, setfield
from .varieties import (VarMorphism, gm_power, product, split_projections,
                        split_torus)


def pullback_obj(f: VarMorphism, obj: CorrObject) -> CorrObject:
    """Base change along f: X' -> X, composing with the graph of f."""
    if f.target != obj.X:
        raise ShapeError(f"{f.target.name} is not the base of the object")
    return compose_objects(graph_object(f), obj)


def pullback_mor(f: VarMorphism, mor: CorrMorphism) -> CorrMorphism:
    if f.target != mor.src.X:
        raise ShapeError(f"{f.target.name} is not the base of the object")
    return compose_morphisms(mor, identity_morphism(graph_object(f)))


def pushforward_obj(g: VarMorphism, obj: CorrObject) -> CorrObject:
    """Relabel the target along g: Y -> Y', composing with the graph of g."""
    if g.source != obj.Y:
        raise ShapeError(f"{g.source.name} is not the target of the object")
    return compose_objects(obj, graph_object(g))


def pushforward_mor(g: VarMorphism, mor: CorrMorphism) -> CorrMorphism:
    if g.source != mor.src.Y:
        raise ShapeError(f"{g.source.name} is not the target of the object")
    return compose_morphisms(identity_morphism(graph_object(g)), mor)


# -- box product ----------------------------------------------------------


def box_product(f: VarMorphism, obj: CorrObject) -> CorrObject:
    """External product along f: U -> U', sending (X, X') to (X x U, X' x U').

    The idempotent and the X'-actions pull back along the projection to X,
    through its graph; each new U'-coordinate acts by the scalar pullback of
    its f-image times the idempotent.
    """
    src = product(obj.X, f.source)
    tgt = product(obj.Y, f.target)
    q_x, q_u = split_projections(src, obj.X, f.source)
    p, *gens = pull_matrices(q_x, (obj.p, *obj.gen_images))
    for img in f.images:
        scalar = q_u.pull(img)
        gens.append(p.scale_elem(scalar))
    return _trusted_object(src, tgt, obj.n, p, tuple(gens))


def box_mor(f: VarMorphism, mor: CorrMorphism) -> CorrMorphism:
    src = box_product(f, mor.src)
    dst = box_product(f, mor.dst)
    q_x, _ = split_projections(src.X, mor.src.X, f.source)
    [mat] = pull_matrices(q_x, [mor.mat])
    return _trusted_morphism(src, dst, mat)


# -- torus actions as certified automorphisms ------------------------------


class AutObject(Frozen):
    """A correspondence with commuting certified automorphisms."""

    def __init__(self, base: CorrObject, thetas: tuple):
        setfield(self, "base", base)
        # pairs (theta_i, theta_i_inverse), each a CorrMorphism
        setfield(self, "thetas", thetas)

    @property
    def arity(self) -> int:
        return len(self.thetas)


class AutMorphism(Frozen):
    def __init__(self, src: AutObject, dst: AutObject, underlying: CorrMorphism):
        setfield(self, "src", src)
        setfield(self, "dst", dst)
        setfield(self, "underlying", underlying)


def make_aut_object(base: CorrObject, thetas) -> AutObject:
    """Validated list of commuting invertible endomorphism pairs."""
    thetas = tuple((fwd, bwd) for fwd, bwd in thetas)
    for fwd, bwd in thetas:
        for m in (fwd, bwd):
            if m.src != base or m.dst != base:
                raise InvalidCertificate("automorphism endpoints must be the base object")
        if not verify_iso(IsoCertificate(fwd, bwd)):
            raise InvalidCertificate("automorphism witness pair is not mutually inverse")
    for i in range(len(thetas)):
        for j in range(i + 1, len(thetas)):
            a, b = thetas[i][0].mat, thetas[j][0].mat
            if a * b != b * a:
                raise InvalidCertificate(f"automorphisms {i + 1} and {j + 1} do not commute")
    return AutObject(base, thetas)


def make_aut_morphism(src: AutObject, dst: AutObject,
                      underlying: CorrMorphism) -> AutMorphism:
    if underlying.src != src.base or underlying.dst != dst.base:
        raise ShapeError("underlying morphism endpoints do not match the bases")
    if src.arity != dst.arity:
        raise ShapeError("automorphism arities differ")
    for i, ((th, _), (th2, _)) in enumerate(zip(src.thetas, dst.thetas)):
        if underlying.mat * th.mat != th2.mat * underlying.mat:
            raise InvalidCertificate(f"morphism does not intertwine automorphism {i + 1}")
    return AutMorphism(src, dst, underlying)


def _aut_on(base: CorrObject, pairs) -> AutObject:
    """The derived automorphism object on ``base`` whose witness pairs have
    the matrices ``pairs``."""
    thetas = tuple((_trusted_morphism(base, base, a), _trusted_morphism(base, base, b))
                   for a, b in pairs)
    return _trusted(make_aut_object, AutObject, base, thetas)


def to_automorphism_object(obj: CorrObject) -> AutObject:
    """Split the target's trailing torus coordinates into automorphisms.

    The torus coordinates come last among the target's variables, so the
    base object keeps the leading generator images and each torus pair
    (t_i, s_i) supplies an automorphism and its inverse witness.  Slicing
    equals pushing forward along the projections: that pushforward sends a
    coordinate y_i to its corner evaluation p*A_i, which is A_i for a valid
    object.
    """
    y_base, _, _ = split_torus(obj.Y)
    k = len(y_base.vars)
    base = _trusted_object(obj.X, y_base, obj.n, obj.p, obj.gen_images[:k])
    mats = obj.gen_images[k:]
    return _aut_on(base, zip(mats[0::2], mats[1::2]))


def to_torus_object(aut: AutObject) -> CorrObject:
    """Merge certified automorphisms back into torus coordinates.

    Rebuilds the canonical product target Y x Gm^n; for objects produced by
    ``to_automorphism_object`` from a product-shaped target this is an exact
    round trip.
    """
    n = aut.arity
    if n == 0:
        raise InvalidArity("need at least one automorphism to build a torus target")
    base = aut.base
    torus = gm_power(n, base.Y.field)
    target = product(base.Y, torus)
    gens = list(base.gen_images)
    for fwd, bwd in aut.thetas:
        gens.append(fwd.mat)
        gens.append(bwd.mat)
    return _trusted_object(base.X, target, base.n, base.p, tuple(gens))


def aut_morphism_from_torus(mor: CorrMorphism) -> AutMorphism:
    """Morphism transport along the splitting; the matrix is unchanged."""
    src = to_automorphism_object(mor.src)
    dst = to_automorphism_object(mor.dst)
    underlying = _trusted_morphism(src.base, dst.base, mor.mat)
    return _trusted(make_aut_morphism, AutMorphism, src, dst, underlying)


def torus_morphism_from_aut(amor: AutMorphism) -> CorrMorphism:
    """Morphism transport along the merging; the matrix is unchanged."""
    return _trusted_morphism(to_torus_object(amor.src),
                             to_torus_object(amor.dst), amor.underlying.mat)


def pullback_aut(f: VarMorphism, aut: AutObject) -> AutObject:
    """Base change of an automorphism object; the witnesses pull back along
    f through its graph, all in one evaluation."""
    base = pullback_obj(f, aut.base)
    mats = pull_matrices(f, [m.mat for pair in aut.thetas for m in pair])
    return _aut_on(base, zip(mats[0::2], mats[1::2]))


def pushforward_aut(g: VarMorphism, aut: AutObject) -> AutObject:
    """Target relabeling of an automorphism object; witnesses are unchanged."""
    return _aut_on(pushforward_obj(g, aut.base),
                   ((fwd.mat, bwd.mat) for fwd, bwd in aut.thetas))
