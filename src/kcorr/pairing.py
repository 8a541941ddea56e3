"""The bilinear composition pairing between correspondence categories.

Objects compose by evaluating the outer object's matrices entrywise through
the inner object's non-unital evaluation and flattening the resulting block
matrix; with the fixed flattening convention (inner index varies fastest)
this is strictly associative and strictly unital at the data level.
Morphisms compose through the same flattening, which over a point base
degenerates to the classical Kronecker product.
"""

from __future__ import annotations

from .errors import (AmbientMismatch, BudgetExceeded, InternalLawViolation,
                     ShapeError)
from .exactalg import Matrix, QElem
from .corrcat import (CorrMorphism, CorrObject, IsoCertificate, corner_eval,
                      direct_sum, graph_object, verify_iso, _trusted_morphism,
                      _trusted_object)

# the most entries a composite's idempotent may hold; a pairing beyond it
# is refused before anything is evaluated
MAX_COMPOSITE_ENTRIES = 10 ** 6


def flatten_blocks(blocks) -> Matrix:
    """Collapse an outer matrix of uniform square blocks into one matrix.

    blocks[a][b] sits at rows a*inner..(a+1)*inner-1 and the matching column
    range, so on square block matrices the map is an algebra isomorphism:
    flatten(B*C) equals flatten(B)*flatten(C).  Rectangular outer shapes are
    allowed so morphism matrices reuse the same layout.  The ring and the
    block size are read from the blocks, so there must be at least one.  A
    1 x 1 outer matrix flattens to its block itself.
    """
    blocks = [list(row) for row in blocks]
    nrows = len(blocks)
    ncols = len(blocks[0]) if blocks else 0
    if any(len(row) != ncols for row in blocks):
        raise ShapeError("ragged block matrix")
    if not ncols:
        raise ShapeError("cannot flatten an empty block matrix")
    basis = blocks[0][0].basis
    inner = blocks[0][0].nrows
    for row in blocks:
        for blk in row:
            if blk.nrows != blk.ncols:
                raise ShapeError("blocks must be square")
            if blk.nrows != inner:
                raise ShapeError("ragged blocks: all blocks must share one size")
            if blk.basis is not basis and blk.basis != basis:
                raise AmbientMismatch("blocks over different rings")
    if nrows == ncols == 1:
        return blocks[0][0]
    out = {}
    for a, row in enumerate(blocks):
        for b, blk in enumerate(row):
            r0, c0 = a * inner, b * inner
            for (i, j), e in blk.entries.items():
                out[r0 + i, c0 + j] = e
    return Matrix(basis, out, nrows * inner, ncols * inner)


def _eval_blocks_flat(inner_obj: CorrObject, outer_mats) -> list[Matrix]:
    """Apply the inner object's evaluation entrywise to each matrix, then flatten.

    The ``outer_mats`` have entries in k[middle variety]; an r x c one gives
    an (r*n) x (c*n) matrix over k[inner_obj.X].  All their entries go
    through one ``corner_eval`` call, so a monomial that recurs anywhere
    among them is evaluated once.
    """
    n = inner_obj.n
    basis = inner_obj.X.gb
    polys = []
    if n:
        for m in outer_mats:
            zero = QElem.zero(m.basis)
            polys += [m.entries.get((i, j), zero).rep
                      for i in range(m.nrows) for j in range(m.ncols)]
    values = iter(corner_eval(inner_obj.p, inner_obj.gen_images, polys))
    return [flatten_blocks([[next(values) for _ in range(m.ncols)]
                            for _ in range(m.nrows)])
            if n and m.nrows and m.ncols
            else Matrix.zeros(basis, m.nrows * n, m.ncols * n)
            for m in outer_mats]


def pull_matrices(f, mats) -> list[Matrix]:
    """Pull matrices over k[f.target] back to k[f.source] along f, entrywise.

    This is evaluation through the graph of f: its corner evaluation of a
    polynomial is the polynomial's substitution along f.
    """
    return _eval_blocks_flat(graph_object(f), mats)


def _check_middle(first: CorrObject, second: CorrObject):
    """Refuse a pairing whose middle varieties differ, or one beyond the budget."""
    if first.Y != second.X:
        raise AmbientMismatch(
            f"middle variety mismatch: {first.Y.name} vs {second.X.name}")
    n = second.n * first.n
    if n * n > MAX_COMPOSITE_ENTRIES:
        raise BudgetExceeded(
            f"composite too large: n = {n} gives {n * n:,} entries, "
            f"more than {MAX_COMPOSITE_ENTRIES:,}")


def _composite(first: CorrObject, second: CorrObject, values) -> CorrObject:
    """The composite object from the flattened evaluations of ``second``'s
    idempotent and generator images through ``first``."""
    p, *gens = values
    return _trusted_object(first.X, second.Y, second.n * first.n, p, tuple(gens))


def compose_objects(first: CorrObject, second: CorrObject) -> CorrObject:
    """Pairing on objects: ``first`` over (V,U), ``second`` over (U,X).

    The result lives over (V,X) with size second.n * first.n.  It is a
    derived value, checked only in debug mode.
    """
    _check_middle(first, second)
    return _composite(first, second,
                      _eval_blocks_flat(first, (second.p, *second.gen_images)))


def compose_morphisms(second_mor: CorrMorphism, first_mor: CorrMorphism) -> CorrMorphism:
    """Pairing on morphisms, matching compose_objects on sources and targets.

    The matrix realization: push the outer matrix through the evaluation of
    the inner *target* object, flatten, and multiply by a block-diagonal of
    copies of the inner matrix.  Over a point base this is exactly the
    Kronecker product of the two matrices in the flattening's index order.

    The endpoints are composed here, not through :func:`compose_objects`:
    the source endpoint's entries go through the inner source in one
    ``corner_eval`` call, and the target endpoint's entries, followed by the
    outer matrix's, through the inner target in one more.
    """
    inner_src, inner_dst = first_mor.src, first_mor.dst
    outer_src, outer_dst = second_mor.src, second_mor.dst
    _check_middle(inner_src, outer_src)
    src_values = _eval_blocks_flat(inner_src, (outer_src.p, *outer_src.gen_images))
    *dst_values, outer_through_inner = _eval_blocks_flat(
        inner_dst, (outer_dst.p, *outer_dst.gen_images, second_mor.mat))
    src = _composite(inner_src, outer_src, src_values)
    dst = _composite(inner_dst, outer_dst, dst_values)
    inner_copies = Matrix.block_diag(
        inner_src.X.gb, tuple(first_mor.mat for _ in range(outer_src.n)))
    return _trusted_morphism(src, dst, outer_through_inner * inner_copies)


def strict_associativity_check(phi1: CorrObject, phi2: CorrObject,
                               phi3: CorrObject) -> bool:
    """Both association orders of a composable triple are data-identical."""
    left = compose_objects(compose_objects(phi1, phi2), phi3)
    right = compose_objects(phi1, compose_objects(phi2, phi3))
    return left == right


def _interleave_permutation(n1a: int, n1b: int, n2: int):
    """Row permutation aligning compose(a (+) b, c) with the direct sum.

    The composite of the inner direct sum carries blocks of size n1a+n1b; the
    direct sum of composites lists all n1a-indices first.  Returns images so
    that permutation[old] = new.
    """
    width = n1a + n1b
    images = [0] * (n2 * width)
    for a in range(n2):
        for i in range(width):
            old = a * width + i
            if i < n1a:
                new = a * n1a + i
            else:
                new = n2 * n1a + a * n1b + (i - n1a)
            images[old] = new
    return images


def sum_split_certificate_inner(first_a: CorrObject, first_b: CorrObject,
                                second: CorrObject) -> IsoCertificate:
    """Certificate: compose(a (+) b, c) ~ compose(a, c) (+) compose(b, c)."""
    combined = compose_objects(direct_sum(first_a, first_b), second)
    split = direct_sum(compose_objects(first_a, second),
                       compose_objects(first_b, second))
    # move the rows (fwd) and the columns (bwd) of the idempotent to where
    # the direct sum lists them
    images = _interleave_permutation(first_a.n, first_b.n, second.n)
    basis, entries, n = combined.p.basis, combined.p.entries, combined.n
    fwd = _trusted_morphism(combined, split, Matrix(
        basis, {(images[i], j): e for (i, j), e in entries.items()}, n, n))
    bwd = _trusted_morphism(split, combined, Matrix(
        basis, {(i, images[j]): e for (i, j), e in entries.items()}, n, n))
    cert = IsoCertificate(fwd, bwd)
    if not verify_iso(cert):
        raise InternalLawViolation("inner direct-sum certificate failed verification")
    return cert


def sum_split_certificate_outer(first: CorrObject, second_a: CorrObject,
                                second_b: CorrObject) -> IsoCertificate:
    """Certificate: compose(c, a (+) b) ~ compose(c, a) (+) compose(c, b).

    With the fixed flattening the two sides are data-identical, so the
    certificate is the identity matrix of the common object.
    """
    combined = compose_objects(first, direct_sum(second_a, second_b))
    split = direct_sum(compose_objects(first, second_a),
                       compose_objects(first, second_b))
    if combined != split:
        raise InternalLawViolation(
            "outer direct-sum composite is expected to split on the nose")
    return IsoCertificate(_trusted_morphism(combined, split, combined.p),
                          _trusted_morphism(split, combined, combined.p))
