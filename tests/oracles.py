"""Independent reference implementations used only as test oracles.

The Buchberger oracle works on plain ``{exponent tuple: coefficient}`` dicts
with its own division loop and no pair pruning, the Kronecker oracle
multiplies scalars directly, the scalar rank oracle is plain field Gaussian
elimination, and the fraction-field rank oracle eliminates on (numerator,
denominator) pairs of ring elements.  The matrix oracles use the package's
``Poly`` arithmetic and ``normal_form`` (which the Buchberger oracle checks)
but none of its matrix or corner-evaluation code: they are the plain dense
loops.  The entrywise pullback substitutes along a variety map one entry at
a time, where the package evaluates through the map's graph.  The module-map
test checks a correspondence morphism as a map of k[X x Y]-modules with
those dense products, and none of the package's morphism checks.
"""

from __future__ import annotations

from fractions import Fraction

from kcorr.exactalg import Matrix, Poly, QElem


# -- scalar helpers -----------------------------------------------------------


def field_ops(field_label, p=5):
    if field_label == "Q":
        return {
            "zero": Fraction(0), "one": Fraction(1),
            "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
            "mul": lambda a, b: a * b, "inv": lambda a: Fraction(1) / a,
        }
    return {
        "zero": 0, "one": 1 % p,
        "add": lambda a, b: (a + b) % p, "sub": lambda a, b: (a - b) % p,
        "mul": lambda a, b: (a * b) % p, "inv": lambda a: pow(a, p - 2, p),
    }


# -- naive Buchberger ---------------------------------------------------------


def _key(order, mono):
    if order == "lex":
        return mono
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _lead(poly, order):
    return max(poly, key=lambda m: _key(order, m))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _poly_sub(a, b, ops):
    out = dict(a)
    for m, c in b.items():
        v = ops["sub"](out.get(m, ops["zero"]), c)
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _poly_mul_term(poly, mono, coeff, ops):
    return {tuple(x + y for x, y in zip(m, mono)): ops["mul"](c, coeff)
            for m, c in poly.items()}


def _full_reduce(poly, gens, order, ops):
    """Reduce every reducible term, scanning generators in list order."""
    poly = dict(poly)
    changed = True
    while changed and poly:
        changed = False
        for mono in sorted(poly, key=lambda m: _key(order, m), reverse=True):
            if mono not in poly:
                continue
            for g in gens:
                glm = _lead(g, order)
                if _divides(glm, mono):
                    factor_mono = tuple(x - y for x, y in zip(mono, glm))
                    factor_coeff = ops["mul"](poly[mono], ops["inv"](g[glm]))
                    poly = _poly_sub(poly, _poly_mul_term(g, factor_mono,
                                                          factor_coeff, ops), ops)
                    changed = True
                    break
            if changed:
                break
    return poly


def _s_poly(f, g, order, ops):
    flm, glm = _lead(f, order), _lead(g, order)
    lcm = tuple(max(a, b) for a, b in zip(flm, glm))
    left = _poly_mul_term(f, tuple(a - b for a, b in zip(lcm, flm)),
                          ops["inv"](f[flm]), ops)
    right = _poly_mul_term(g, tuple(a - b for a, b in zip(lcm, glm)),
                           ops["inv"](g[glm]), ops)
    return _poly_sub(left, right, ops)


def _monic(poly, order, ops):
    lc = poly[_lead(poly, order)]
    inv = ops["inv"](lc)
    return {m: ops["mul"](inv, c) for m, c in poly.items()}


def naive_buchberger(gens, order, ops):
    """All S-pairs, no pruning, full reduction; returns the reduced basis."""
    basis = [_monic(dict(g), order, ops) for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        s = _full_reduce(_s_poly(basis[i], basis[j], order, ops), basis, order, ops)
        if s:
            basis.append(_monic(s, order, ops))
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    # interreduce until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            rest = basis[:i] + basis[i + 1:]
            r = _full_reduce(basis[i], rest, order, ops)
            if not r:
                basis.pop(i)
                changed = True
                break
            r = _monic(r, order, ops)
            if r != basis[i]:
                basis[i] = r
                changed = True
                break
    return sorted(basis, key=lambda g: _key(order, _lead(g, order)))


def poly_to_dict(poly):
    """Convert a package polynomial to the oracle's raw representation."""
    return dict(poly.terms)


def canonical(basis_dicts, order):
    return [tuple(sorted(g.items(), key=lambda t: _key(order, t[0]), reverse=True))
            for g in basis_dicts]


# -- dense Kronecker product over the base field -------------------------------


def dense_kron(a_rows, b_rows, mul):
    """Kronecker product with the inner index varying fastest.

    a_rows, b_rows: nested lists of field scalars; entry ((x,i),(y,j)) is
    a[x][y]*b[i][j] at flat position (x*len(b)+i, y*len(b[0])+j).
    """
    n2, m2 = len(a_rows), len(a_rows[0]) if a_rows else 0
    n1, m1 = len(b_rows), len(b_rows[0]) if b_rows else 0
    out = [[None] * (m2 * m1) for _ in range(n2 * n1)]
    for x in range(n2):
        for i in range(n1):
            for y in range(m2):
                for j in range(m1):
                    out[x * n1 + i][y * m1 + j] = mul(a_rows[x][y], b_rows[i][j])
    return out


# -- scalar Gaussian rank --------------------------------------------------------


def field_gauss_rank(rows, ops):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ops["inv"](rows[rank][col])
        rows[rank] = [ops["mul"](inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [ops["sub"](v, ops["mul"](f, w))
                           for v, w in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


# -- rank over a fraction field ------------------------------------------------


def fraction_pair_rank(mat):
    """Rank of a ``Matrix`` over Frac(R) by elimination on (numerator,
    denominator) pairs of ring elements; valid over an integral domain."""
    one = QElem.one(mat.basis)
    rows = [[(e, one) for e in r] for r in mat.rows]
    rank = 0
    col = 0
    while rank < len(rows) and col < mat.ncols:
        pivot = next((i for i in range(rank, len(rows))
                      if not rows[i][col][0].is_zero()), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pn, pd = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            en, ed = rows[i][col]
            if en.is_zero():
                continue
            fn, fd = en * pd, ed * pn  # factor = entry / pivot
            rows[i] = [(a * b_den * fd - b_num * fn * a_den, a_den * b_den * fd)
                       for (a, a_den), (b_num, b_den) in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


# -- dense matrix kernel over a quotient ring -----------------------------------


def dense_matrix_product(a, b):
    """a*b by the dense triple loop: each entry is the sum of all ``Poly``
    products a[i][k]*b[k][j], zeros included, then one normal form."""
    basis = a.basis
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = Poly.zero(basis.ambient)
            for k in range(a.ncols):
                acc = acc + a.rows[i][k].rep * b.rows[k][j].rep
            row.append(QElem(basis, basis.normal_form(acc), reduced=True))
        rows.append(row)
    return Matrix(basis, rows, a.nrows, b.ncols)


def entrywise_pull(f, mat):
    """``mat`` over k[f.target] pulled back to k[f.source] by applying
    ``VarMorphism.pull`` (substitution, then one normal form) to each entry."""
    return Matrix(f.source.gb, [[f.pull(e) for e in row] for row in mat.rows],
                  mat.nrows, mat.ncols)


def term_by_term_corner_eval(p, action_mats, poly):
    """Sum of c * p * A_1^a_1 * ... * A_m^a_m over the terms c*y^a of ``poly``.

    Each term multiplies p by one action matrix at a time, so every power is
    rebuilt for every term.
    """
    basis = p.basis
    n = p.nrows
    acc = [[Poly.zero(basis.ambient)] * n for _ in range(n)]
    for mono, coeff in poly.terms.items():
        term = p
        for mat, e in zip(action_mats, mono):
            for _ in range(e):
                term = dense_matrix_product(term, mat)
        acc = [[acc[i][j] + term.rows[i][j].rep.scale(coeff) for j in range(n)]
               for i in range(n)]
    return Matrix(basis, [[QElem(basis, f) for f in row] for row in acc], n, n)


def dense_module_hom(src, dst, mat):
    """Whether ``mat`` is a k[X x Y]-module map between the modules that two
    correspondences over one (X, Y) present, by dense products alone.

    A correspondence presents the image of its idempotent p, with each
    coordinate x of X acting by x*p and each coordinate of Y by its
    generator image.  A module map is fixed by the idempotents,
    ``p_dst * m * p_src = m``, and intertwines every one of those actions.
    """
    basis = src.X.gb
    zero = QElem.zero(basis)

    def times(x, p):
        n = p.nrows
        scalar = Matrix(basis, [[x if i == j else zero for j in range(n)]
                                for i in range(n)], n, n)
        return dense_matrix_product(scalar, p)

    if dense_matrix_product(dense_matrix_product(dst.p, mat), src.p) != mat:
        return False
    actions = [(times(x, src.p), times(x, dst.p))
               for x in (src.X.var(name) for name in src.X.vars)]
    actions += zip(src.gen_images, dst.gen_images)
    return all(dense_matrix_product(mat, a_src) == dense_matrix_product(a_dst, mat)
               for a_src, a_dst in actions)
