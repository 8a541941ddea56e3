"""The additive category of matrix correspondences between two varieties.

An object over (X, Y) is a size-n idempotent p over k[X] together with one
commuting matrix per coordinate of Y, satisfying Y's relations under the
non-unital evaluation that sends a monomial c*y^a to c * p * A^a.  Morphisms
are intertwining matrices cut down by the idempotents on both sides.
Everything is immutable and equality is equality of normal-form data.
"""

from __future__ import annotations

from . import config
from .errors import (AmbientMismatch, InternalLawViolation, InvalidObject,
                     InvalidMorphism, KcorrError, ShapeError, UnknownVariable)
from .exactalg import Matrix, Poly, QElem
from .values import Frozen, setfield
from .varieties import AffVariety, identity_map


def corner_eval(p: Matrix, action_mats, polys) -> list[Matrix]:
    """Evaluate polynomials in the corner algebra with unit ``p``, one result each.

    ``action_mats`` are indexed like the polynomials' variables; a monomial
    c*y^a goes to c * p * prod(A_i^a_i) and the constant c0 to c0 * p.  Each
    result is summed entrywise as a linear combination of normal forms, so
    it needs no further reduction.

    The call builds what its polynomials share once: the corner product
    p * A^a of each monomial a, from its prefix as (p * A^(a - e_i)) * A_i
    with i the last variable of a, so every prefix is kept for the
    monomials that extend it; each corner product's nonzero entries; and
    one n x n zero matrix, which every zero polynomial returns.  A single
    monomial with coefficient one returns its corner product itself.
    """
    n = p.nrows
    basis = p.basis
    ambient = basis.ambient
    add, mul, one = ambient.field.add, ambient.field.mul, ambient.field.one
    zero_block = Matrix.zeros(basis, n, n)
    products = {(0,) * len(action_mats): p}
    corners: dict = {}

    def product(mono):
        term = products.get(mono)
        if term is None:
            # strip last factors until a built prefix, then multiply back
            steps = []
            prefix = list(mono)
            while term is None:
                i = max(k for k, e in enumerate(prefix) if e)
                steps.append(i)
                prefix[i] -= 1
                term = products.get(tuple(prefix))
            for i in reversed(steps):
                prefix[i] += 1
                term = products[tuple(prefix)] = term * action_mats[i]
        return term

    def corner(mono):
        entries = corners.get(mono)
        if entries is None:
            entries = corners[mono] = [((i, j), entry.rep.terms)
                                       for i, row in enumerate(product(mono).rows)
                                       for j, entry in enumerate(row) if entry.rep.terms]
        return entries

    results = []
    for poly in polys:
        if not poly.terms:
            results.append(zero_block)
            continue
        if len(poly.terms) == 1:
            [(mono, coeff)] = poly.terms.items()
            if coeff == one:
                results.append(product(mono))
                continue
        acc: dict = {}
        for mono, coeff in poly.terms.items():
            for pos, entry_terms in corner(mono):
                terms = acc.get(pos)
                if terms is None:
                    terms = acc[pos] = {}
                for m, c in entry_terms.items():
                    prev = terms.get(m)
                    terms[m] = mul(coeff, c) if prev is None else add(prev, mul(coeff, c))
        out = [list(row) for row in zero_block.rows]
        for (i, j), terms in acc.items():
            rep = Poly(ambient, terms)
            if rep.terms:
                out[i][j] = QElem(basis, rep, reduced=True)
        results.append(Matrix(basis, out, n, n))
    return results


class CorrObject(Frozen):
    """An object of the correspondence category over (X, Y)."""

    def __init__(self, X: AffVariety, Y: AffVariety, n: int, p: Matrix,
                 gen_images: tuple):
        setfield(self, "X", X)
        setfield(self, "Y", Y)
        setfield(self, "n", n)
        setfield(self, "p", p)
        setfield(self, "gen_images", gen_images)

    def __repr__(self):
        return f"CorrObject({self.X.name} -> {self.Y.name}, n={self.n})"


class CorrMorphism(Frozen):
    """An intertwining matrix between two objects over the same (X, Y)."""

    def __init__(self, src: CorrObject, dst: CorrObject, mat: Matrix):
        setfield(self, "src", src)
        setfield(self, "dst", dst)
        setfield(self, "mat", mat)

    def __repr__(self):
        return f"CorrMorphism({self.src!r} => {self.dst!r})"


class IsoCertificate(Frozen):
    """A pair of mutually inverse morphisms; the witness k0 merges classes by."""

    def __init__(self, fwd: CorrMorphism, bwd: CorrMorphism):
        setfield(self, "fwd", fwd)
        setfield(self, "bwd", bwd)


def _check_object_data(X, Y, n, p, gen_images):
    basis = X.gb
    if p.basis != basis:
        raise AmbientMismatch(f"idempotent not over k[{X.name}]")
    if p.nrows != n or p.ncols != n:
        raise ShapeError(f"idempotent must be {n}x{n}")
    if len(gen_images) != len(Y.vars):
        raise ShapeError(
            f"expected {len(Y.vars)} generator images for {Y.name}, got {len(gen_images)}")
    for a in gen_images:
        if a.basis != basis:
            raise AmbientMismatch(f"generator image not over k[{X.name}]")
        if a.nrows != n or a.ncols != n:
            raise ShapeError(f"generator images must be {n}x{n}")
    if p * p != p:
        raise InvalidObject("idempotent law p*p = p fails")
    for name, a in zip(Y.vars, gen_images):
        if p * a != a:
            raise InvalidObject(f"corner law p*A = A fails for generator {name}")
        if a * p != a:
            raise InvalidObject(f"corner law A*p = A fails for generator {name}")
    m = len(gen_images)
    for i in range(m):
        for j in range(i + 1, m):
            if gen_images[i] * gen_images[j] != gen_images[j] * gen_images[i]:
                raise InvalidObject(
                    f"commutation law fails for generators {Y.vars[i]}, {Y.vars[j]}")
    for rel, value in zip(Y.ideal_gens, corner_eval(p, gen_images, Y.ideal_gens)):
        if not value.is_zero():
            raise InvalidObject(f"target relation {rel} does not evaluate to 0")


def make_correspondence(X: AffVariety, Y: AffVariety, n: int, p: Matrix,
                        gen_images) -> CorrObject:
    """Validated object; n = 0 gives the zero object."""
    gen_images = tuple(gen_images)
    _check_object_data(X, Y, n, p, gen_images)
    return CorrObject(X, Y, n, p, gen_images)


def _trusted(make, cls, *args):
    """A derived value, built by a law-preserving operation as ``cls(*args)``.

    In debug mode the validating constructor ``make`` builds it instead, and
    a validation failure is a bug in the operation: ``InternalLawViolation``.
    """
    if config.debug_enabled():
        try:
            return make(*args)
        except KcorrError as exc:
            raise InternalLawViolation(
                f"derived {cls.__name__} failed validation: {exc}") from exc
    return cls(*args)


def _trusted_object(X, Y, n, p, gen_images) -> CorrObject:
    return _trusted(make_correspondence, CorrObject, X, Y, n, p, gen_images)


def zero_object(X: AffVariety, Y: AffVariety) -> CorrObject:
    empty = Matrix.zeros(X.gb, 0, 0)
    return CorrObject(X, Y, 0, empty, tuple(empty for _ in Y.vars))


def eval_nonunital(obj: CorrObject, f) -> Matrix:
    """Value of the object's non-unital evaluation on f in k[Y]."""
    if isinstance(f, QElem):
        if f.basis != obj.Y.gb:
            raise AmbientMismatch(f"element not over k[{obj.Y.name}]")
        f = f.rep
    elif isinstance(f, str):
        f = obj.Y.qelem(f).rep
    if f.ambient != obj.Y.ambient:
        raise UnknownVariable(
            f"polynomial over {f.ambient.vars} does not match {obj.Y.name}")
    return corner_eval(obj.p, obj.gen_images, [f])[0]


def graph_object(f) -> CorrObject:
    """The rank-one correspondence encoding a variety morphism."""
    X, Y = f.source, f.target
    basis = X.gb
    p = Matrix.identity(basis, 1)
    gens = tuple(Matrix(basis, [[img]]) for img in f.images)
    return _trusted_object(X, Y, 1, p, gens)


def identity_object(X: AffVariety) -> CorrObject:
    return graph_object(identity_map(X))


def direct_sum(a: CorrObject, b: CorrObject) -> CorrObject:
    if a.X != b.X or a.Y != b.Y:
        raise AmbientMismatch("direct sum needs matching source and target varieties")
    basis = a.X.gb
    p = Matrix.block_diag(basis, (a.p, b.p))
    gens = tuple(Matrix.block_diag(basis, (ga, gb))
                 for ga, gb in zip(a.gen_images, b.gen_images))
    return _trusted_object(a.X, a.Y, a.n + b.n, p, gens)


def _check_morphism_data(src, dst, mat):
    if src.X != dst.X or src.Y != dst.Y:
        raise AmbientMismatch("morphism endpoints over different (X, Y)")
    if mat.basis != src.X.gb:
        raise AmbientMismatch(f"matrix not over k[{src.X.name}]")
    if mat.nrows != dst.n or mat.ncols != src.n:
        raise ShapeError(f"matrix must be {dst.n}x{src.n}")
    if dst.p * mat * src.p != mat:
        raise InvalidMorphism("corner law p_dst*m*p_src = m fails")
    for name, a_src, a_dst in zip(src.Y.vars, src.gen_images, dst.gen_images):
        if mat * a_src != a_dst * mat:
            raise InvalidMorphism(f"intertwining fails at generator {name}")


def make_corr_morphism(src: CorrObject, dst: CorrObject, mat: Matrix) -> CorrMorphism:
    _check_morphism_data(src, dst, mat)
    return CorrMorphism(src, dst, mat)


def _trusted_morphism(src, dst, mat) -> CorrMorphism:
    return _trusted(make_corr_morphism, CorrMorphism, src, dst, mat)


def identity_morphism(obj: CorrObject) -> CorrMorphism:
    return CorrMorphism(obj, obj, obj.p)


def zero_morphism(src: CorrObject, dst: CorrObject) -> CorrMorphism:
    if src.X != dst.X or src.Y != dst.Y:
        raise AmbientMismatch("morphism endpoints over different (X, Y)")
    return CorrMorphism(src, dst, Matrix.zeros(src.X.gb, dst.n, src.n))


def compose_vertical(beta: CorrMorphism, alpha: CorrMorphism) -> CorrMorphism:
    """beta o alpha inside one Hom-category."""
    if alpha.dst != beta.src:
        raise AmbientMismatch("morphisms are not composable")
    return _trusted_morphism(alpha.src, beta.dst, beta.mat * alpha.mat)


def add_morphisms(alpha: CorrMorphism, beta: CorrMorphism) -> CorrMorphism:
    if alpha.src != beta.src or alpha.dst != beta.dst:
        raise AmbientMismatch("morphism sum needs identical endpoints")
    return _trusted_morphism(alpha.src, alpha.dst, alpha.mat + beta.mat)


def scale_morphism(alpha: CorrMorphism, c) -> CorrMorphism:
    return _trusted_morphism(alpha.src, alpha.dst, alpha.mat.scale(c))


def verify_iso(cert: IsoCertificate) -> bool:
    """True when both round trips are the identity morphisms."""
    fwd, bwd = cert.fwd, cert.bwd
    if fwd.src != bwd.dst or fwd.dst != bwd.src:
        return False
    return (bwd.mat * fwd.mat == fwd.src.p) and (fwd.mat * bwd.mat == fwd.dst.p)


def sum_injections(a: CorrObject, b: CorrObject):
    """Biproduct structure maps (sum, i1, i2, pr1, pr2) of a (+) b."""
    s = direct_sum(a, b)
    basis = a.X.gb
    block_diag, zeros = Matrix.block_diag, Matrix.zeros
    # each map is a.p or b.p beside a zero block with one side of length 0
    i1 = _trusted_morphism(a, s, block_diag(basis, (a.p, zeros(basis, b.n, 0))))
    i2 = _trusted_morphism(b, s, block_diag(basis, (zeros(basis, a.n, 0), b.p)))
    pr1 = _trusted_morphism(s, a, block_diag(basis, (a.p, zeros(basis, 0, b.n))))
    pr2 = _trusted_morphism(s, b, block_diag(basis, (zeros(basis, 0, a.n), b.p)))
    return s, i1, i2, pr1, pr2
