"""Presented affine varieties, products and coordinate-ring pullbacks.

A variety here is nothing more than a presentation: named variables and
ideal generators, compared as a frozen value.  Its degrevlex ring and
reduced basis are derived from the presentation when first used.
Products rename variables by prefixing with the factor name (``.`` is the
reserved separator), and the flattened factor list makes the product strictly
associative at the data level - both association orders produce the identical
presentation.  A product whose last factor is a standard torus splits back
into its base and that torus (``split_torus``).
"""

from __future__ import annotations

from functools import cached_property

from .errors import (AmbientMismatch, FieldMismatch, InvalidArity,
                     NotWellDefined, ParseError, ShapeError, UnknownVariable)
from .exactalg import (DEGREVLEX, Ambient, Field, Poly, QElem, buchberger,
                       parse_poly, tokenize)
from .values import Frozen, setfield

SEPARATOR = "."


class AffVariety(Frozen):
    """A presented affine variety; equal presentations are equal varieties."""

    def __init__(self, name: str, vars: tuple, ideal_gens: tuple, field: Field,
                 factors: tuple | None = None):
        setfield(self, "name", name)
        setfield(self, "vars", vars)
        setfield(self, "ideal_gens", ideal_gens)
        setfield(self, "field", field)
        setfield(self, "factors", factors)

    @cached_property
    def ambient(self) -> Ambient:
        return Ambient(self.vars, self.field, DEGREVLEX)

    @cached_property
    def gb(self):
        """The reduced degrevlex basis, looked up when first used.

        Equal presentations, and the products and tori built from them,
        share one basis object per process (see :func:`buchberger`).
        """
        return buchberger(self.ideal_gens, self.ambient)

    # ring access ---------------------------------------------------------

    def qelem(self, value) -> QElem:
        """Coerce a Poly, string literal or QElem into k[self]."""
        if isinstance(value, QElem):
            if value.basis != self.gb:
                raise AmbientMismatch(f"element not over k[{self.name}]")
            return value
        if isinstance(value, Poly):
            return QElem(self.gb, value)
        return QElem(self.gb, parse_poly(value, self.ambient))

    def var(self, name: str) -> QElem:
        return QElem.variable(self.gb, name)

    def zero(self) -> QElem:
        return QElem.zero(self.gb)

    def one(self) -> QElem:
        return QElem.one(self.gb)

    def is_point(self) -> bool:
        return not self.vars and not self.ideal_gens

    def __repr__(self):
        return f"AffVariety({self.name}: k[{', '.join(self.vars)}]/{len(self.ideal_gens)} gens)"


def make_variety(name, variables, ideal_gens, field: Field) -> AffVariety:
    """Build a variety from variable names and generators (Poly or literal).

    User-facing names must not contain the reserved ``.`` separator; renamed
    product variables use it.  A variable must also be one identifier to the
    polynomial tokenizer, or no literal could ever mention it.
    """
    def _check_ident(label, value, ok):
        if not ok:
            raise InvalidArity(f"{label} {value!r} must be a plain identifier "
                               f"({SEPARATOR!r} is reserved for products)")

    _check_ident("variety name", name,
                 name and (name[0].isalpha() or name[0] == "_")
                 and all(c.isalnum() or c == "_" for c in name))
    variables = tuple(variables)
    for v in variables:
        try:
            one_ident = tokenize(v) == [("ident", v, 1)]
        except ParseError:
            one_ident = False
        _check_ident("variable", v, one_ident and SEPARATOR not in v)
    ambient = Ambient(variables, field, DEGREVLEX)
    gens = []
    for g in ideal_gens:
        gens.append(g if isinstance(g, Poly) else parse_poly(g, ambient))
        if gens[-1].ambient != ambient:
            raise UnknownVariable(f"generator {gens[-1]} not over {variables}")
    return AffVariety(name, variables, tuple(gens), field)


def point(field: Field) -> AffVariety:
    """The one-point variety pt = Spec k."""
    return make_variety("pt", [], [], field)


def _torus_vars(n: int) -> tuple:
    return tuple(name for i in range(1, n + 1) for name in (f"t{i}", f"s{i}"))


def _torus_relations(ambient: Ambient, n: int) -> tuple:
    """The generators t_i*s_i - 1 of the rank-n torus, over ``ambient``."""
    return tuple(Poly.variable(ambient, f"t{i}") * Poly.variable(ambient, f"s{i}")
                 - Poly.one(ambient) for i in range(1, n + 1))


def gm_power(n: int, field: Field) -> AffVariety:
    """The split torus of rank n: k[t1,s1,..,tn,sn]/(t_i*s_i - 1)."""
    if n <= 0:
        raise InvalidArity(f"torus rank must be positive, got {n}")
    variables = _torus_vars(n)
    gens = _torus_relations(Ambient(variables, field, DEGREVLEX), n)
    return AffVariety(f"Gm{n}", variables, gens, field)


def torus_arity(v: AffVariety) -> int | None:
    """Rank n when ``v`` is presented exactly like ``gm_power(n)``, else None."""
    n = len(v.vars) // 2
    if n == 0 or v.factors is not None or v.vars != _torus_vars(n):
        return None
    if set(v.ideal_gens) != set(_torus_relations(v.ambient, n)):
        return None
    return n


# -- products -----------------------------------------------------------


def _flatten(v: AffVariety):
    return v.factors if v.factors is not None else (v,)


def factor_embeddings(factors):
    """Per-factor maps ``factor var name -> product var name``: a variable is
    prefixed with its factor's name, numbered when that name repeats."""
    names = [f.name for f in factors]
    seen = {}
    embeds = []
    for f in factors:
        prefix = f.name
        if names.count(f.name) > 1:
            seen[f.name] = seen.get(f.name, 0) + 1
            prefix = f"{f.name}{SEPARATOR}{seen[f.name]}"
        embeds.append({v: f"{prefix}{SEPARATOR}{v}" for v in f.vars})
    return embeds


def _assemble_product(factors) -> AffVariety:
    embeds = factor_embeddings(factors)
    variables = tuple(name for emb in embeds for name in emb.values())
    field = factors[0].field
    ambient = Ambient(variables, field, DEGREVLEX)
    gens = tuple(g.rename(emb, ambient)
                 for f, emb in zip(factors, embeds) for g in f.ideal_gens)
    name = "_x_".join(f.name for f in factors)
    return AffVariety(name, variables, gens, field, factors=tuple(factors))


def product(x: AffVariety, y: AffVariety) -> AffVariety:
    """Product variety on the flattened factor list; strictly associative."""
    if x.field != y.field:
        raise FieldMismatch(f"{x.field} vs {y.field}")
    return _assemble_product(_flatten(x) + _flatten(y))


def split_torus(y: AffVariety):
    """Decompose ``y`` as (base, torus factor, rank).

    Accepts a product whose last factor is a standard rank-n torus, or a bare
    torus (read as pt x torus).  Anything else is a ShapeError.
    """
    if y.factors is None:
        n = torus_arity(y)
        if n is None:
            raise ShapeError(f"{y.name} has no trailing torus factor")
        return point(y.field), y, n
    *rest, torus = y.factors
    n = torus_arity(torus)
    if n is None:
        raise ShapeError(f"the last factor of {y.name} is not a standard torus")
    base = rest[0] if len(rest) == 1 else _assemble_product(rest)
    return base, torus, n


# -- morphisms ----------------------------------------------------------


class VarMorphism(Frozen):
    """A morphism of varieties, represented by its coordinate pullback."""

    def __init__(self, source: AffVariety, target: AffVariety, images: tuple):
        setfield(self, "source", source)
        setfield(self, "target", target)
        # one QElem over k[source] per target variable
        setfield(self, "images", images)

    def image_map(self) -> dict:
        return {v: img.rep for v, img in zip(self.target.vars, self.images)}

    def pull(self, value) -> QElem:
        """Pullback of an element of k[target] to k[source]."""
        q = self.target.qelem(value)
        rep = q.rep.substitute(self.image_map(), self.source.ambient)
        return QElem(self.source.gb, rep)

    def __repr__(self):
        imgs = ", ".join(f"{v}->{img}" for v, img in zip(self.target.vars, self.images))
        return f"VarMorphism({self.source.name} -> {self.target.name}: {imgs})"


def make_morphism(source: AffVariety, target: AffVariety, images) -> VarMorphism:
    """Validated morphism; ``images`` are indexed by the target's variables."""
    if source.field != target.field:
        raise FieldMismatch(f"{source.field} vs {target.field}")
    if len(images) != len(target.vars):
        raise InvalidArity(
            f"expected {len(target.vars)} images for {target.name}, got {len(images)}")
    images = tuple(source.qelem(v) for v in images)
    broken = broken_relation(source, target, images)
    if broken:
        rel, value = broken
        raise NotWellDefined(f"relation {rel} of {target.name} maps to {value}, not 0")
    return VarMorphism(source, target, images)


def broken_relation(source: AffVariety, target: AffVariety, coords):
    """The first relation of ``target`` that the k[source]-point ``coords``
    (a QElem per target variable) does not satisfy, with its value there;
    None when it satisfies them all."""
    image_map = {v: c.rep for v, c in zip(target.vars, coords)}
    for rel in target.ideal_gens:
        value = QElem(source.gb, rel.substitute(image_map, source.ambient))
        if not value.is_zero():
            return rel, value
    return None


def identity_map(v: AffVariety) -> VarMorphism:
    return VarMorphism(v, v, tuple(v.var(name) for name in v.vars))


def compose_maps(outer: VarMorphism, inner: VarMorphism) -> VarMorphism:
    """The composite outer o inner; pullbacks compose the other way round."""
    if inner.target != outer.source:
        raise AmbientMismatch(
            f"cannot compose {outer.source.name}->{outer.target.name} "
            f"after {inner.source.name}->{inner.target.name}")
    return VarMorphism(inner.source, outer.target,
                       tuple(inner.pull(img) for img in outer.images))


def product_morphism(f: VarMorphism, g: VarMorphism) -> VarMorphism:
    """Componentwise product  f x g : src(f) x src(g) -> tgt(f) x tgt(g)."""
    src = product(f.source, g.source)
    tgt = product(f.target, g.target)
    # a product lists its factors' variables in factor order
    k = len(f.source.vars)
    renames = ((f, dict(zip(f.source.vars, src.vars[:k]))),
               (g, dict(zip(g.source.vars, src.vars[k:]))))
    return VarMorphism(src, tgt, tuple(
        QElem(src.gb, img.rep.rename(rename, src.ambient))
        for m, rename in renames for img in m.images))


def split_projections(prod: AffVariety, left: AffVariety, right: AffVariety):
    """The two projections of ``prod = product(left, right)``."""
    # product() is a function of the flattened factor lists: compare those
    if prod.factors != _flatten(left) + _flatten(right):
        raise ShapeError(f"{prod.name} is not the product of {left.name} and {right.name}")
    k = len(left.vars)
    return tuple(VarMorphism(prod, part, tuple(prod.var(n) for n in names))
                 for part, names in ((left, prod.vars[:k]), (right, prod.vars[k:])))
