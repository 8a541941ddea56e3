"""The sparse matrix product and corner evaluation against dense oracles.

Also counts the corner evaluations each composition and pushforward makes:
one batch call per inner object, carrying every entry evaluated through it.

Rings: Gm1 = k[t1, s1]/(t1*s1 - 1) and T3 = k[y]/(y^3 - y), over F5 and Q.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (dense_block_diag, dense_entrywise, dense_matrix_product,
                     term_by_term_corner_eval)
from kcorr import functors, pairing
from kcorr.config import debug_validation
from kcorr.corrcat import CorrObject, corner_eval, identity_morphism
from kcorr.errors import AmbientMismatch, ShapeError
from kcorr.exactalg import (Ambient, GroebnerBasis, Matrix, Poly, PrimeField, QElem,
                            QQ, buchberger, parse_poly)
from kcorr.exactalg.groebner import reduce_poly
from kcorr.pairing import (_eval_blocks_flat, compose_morphisms, compose_objects,
                           flatten_blocks)
from kcorr.randomgen import GenBounds, random_morphism_from, random_object, sample_map
from kcorr.varieties import gm_power, make_variety, point

F5 = PrimeField(5)
RINGS = {
    "Gm1-F5": gm_power(1, F5),
    "Gm1-Q": gm_power(1, QQ),
    "T3-F5": make_variety("T3", ["y"], ["y^3 - y"], F5),
    "T3-Q": make_variety("T3", ["y"], ["y^3 - y"], QQ),
}
NAMES = sorted(RINGS)
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_groebner.json").read_text())
SETTINGS = settings(max_examples=30, deadline=None)


def polys(variety, max_exp=3):
    monos = st.tuples(*[st.integers(0, max_exp) for _ in variety.vars])
    scalars = st.sampled_from(variety.field.elements_sample())
    return st.dictionaries(monos, scalars, max_size=3).map(
        lambda terms: Poly(variety.ambient, terms))


def entries(variety, zeros):
    """Entries of which ``zeros`` in ``zeros + 1`` are zero on average."""
    zero = QElem.zero(variety.gb)
    return st.one_of(*[st.just(zero)] * zeros,
                     polys(variety).map(lambda f: QElem(variety.gb, f)))


@st.composite
def matrices(draw, variety, nrows, ncols):
    """Dense to mostly zero, with any rows and columns all zero, built from
    dense rows or from a dict of entries."""
    entry = entries(variety, draw(st.integers(0, 6)))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    zero = QElem.zero(variety.gb)
    for i in draw(st.sets(st.integers(0, nrows - 1))) if nrows else ():
        rows[i] = [zero] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1))) if ncols else ():
        for row in rows:
            row[j] = zero
    if draw(st.booleans()):
        return Matrix(variety.gb, rows, nrows, ncols)
    # the dict form, with its zeros kept in and its positions shuffled
    positions = draw(st.permutations([(i, j) for i in range(nrows)
                                      for j in range(ncols)]))
    return Matrix(variety.gb, {(i, j): rows[i][j] for i, j in positions},
                  nrows, ncols)


def draw_square_setup(data, variety, n):
    p = data.draw(matrices(variety, n, n))
    mats = [data.draw(matrices(variety, n, n)) for _ in variety.vars]
    return p, mats


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_product_matches_dense_oracle(name, data):
    variety = RINGS[name]
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a = data.draw(matrices(variety, r, k))
    b = data.draw(matrices(variety, k, c))
    got = a * b
    want = dense_matrix_product(a, b)
    assert (got.nrows, got.ncols) == (r, c)
    assert got == want
    assert repr(got) == repr(want)
    # the entrywise operations against their dense results
    other = data.draw(matrices(variety, r, k))
    x = data.draw(st.sampled_from(variety.field.elements_sample()))
    for got, want in ((a + other, dense_entrywise(QElem.__add__, a, other)),
                      (a - other, dense_entrywise(QElem.__sub__, a, other)),
                      (-a, dense_entrywise(QElem.__neg__, a)),
                      (a.scale(x), dense_entrywise(lambda e: e.scale(x), a)),
                      (Matrix.block_diag(variety.gb, (a, b, a)),
                       dense_block_diag(variety.gb, (a, b, a)))):
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_cancelling_entries_give_zero(name, data):
    variety = RINGS[name]
    r, k, c = (data.draw(st.integers(0, 3)) for _ in range(3))
    a = data.draw(matrices(variety, r, k))
    b = data.draw(matrices(variety, k, c))
    left = Matrix(variety.gb, [row + row for row in a.rows], r, 2 * k)
    right = Matrix(variety.gb, list(b.rows) + [[-e for e in row] for row in b.rows],
                   2 * k, c)
    got = left * right
    assert got == Matrix.zeros(variety.gb, r, c)
    assert got == dense_matrix_product(left, right)


@pytest.mark.parametrize("name, left, right", [
    ("Gm1-F5", ["t1", "-1"], ["s1", "1"]),
    ("Gm1-Q", ["t1", "-1"], ["s1", "1"]),
    ("T3-F5", ["y^2", "-1"], ["y", "y"]),
    ("T3-Q", ["y^2", "-1"], ["y", "y"]),
])
def test_entry_cancelling_only_after_reduction(name, left, right):
    variety = RINGS[name]
    a = Matrix(variety.gb, [[variety.qelem(e) for e in left]])
    b = Matrix(variety.gb, [[variety.qelem(e)] for e in right])
    assert (a * b).is_zero()
    assert a * b == dense_matrix_product(a, b)


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_corner_eval_matches_term_by_term(name, data):
    variety = RINGS[name]
    n = data.draw(st.integers(0, 3))
    p, mats = draw_square_setup(data, variety, n)
    poly = data.draw(polys(variety, max_exp=6))
    assert corner_eval(p, mats, [poly]) == [term_by_term_corner_eval(p, mats, poly)]


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_shared_power_table_matches_fresh_tables(name, data):
    variety = RINGS[name]
    n = data.draw(st.integers(1, 3))
    p, mats = draw_square_setup(data, variety, n)
    r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    outer = data.draw(matrices(variety, r, c))
    entries = [e.rep for row in outer.rows for e in row]
    batch = corner_eval(p, mats, entries)
    single = [corner_eval(p, mats, [f])[0] for f in entries]
    oracle = [term_by_term_corner_eval(p, mats, f) for f in entries]
    assert batch == single == oracle
    assert corner_eval(p, mats, entries[::-1]) == oracle[::-1]
    obj = CorrObject(variety, variety, n, p, tuple(mats))
    blocks = [oracle[i * c:(i + 1) * c] for i in range(r)]
    flat = flatten_blocks(blocks)
    assert _eval_blocks_flat(obj, [outer]) == [flat]
    p_flat = flatten_blocks([[term_by_term_corner_eval(p, mats, e.rep) for e in row]
                             for row in p.rows])
    assert _eval_blocks_flat(obj, [p, outer]) == [p_flat, flat]


def _noncommuting_setup(variety):
    """A non-idempotent p and two action matrices that do not commute, so a
    corner product is right only when its factors come in variable order."""
    gb = variety.gb
    one, zero, t, s = (QElem.one(gb), QElem.zero(gb), variety.var("t1"),
                       variety.var("s1"))
    p = Matrix(gb, [[one, t], [zero, one.scale(variety.field.from_int(2))]])
    mats = [Matrix(gb, [[t, one], [zero, s]]), Matrix(gb, [[s, zero], [one, t]])]
    assert mats[0] * mats[1] != mats[1] * mats[0]
    return p, mats


@pytest.mark.parametrize("name", ["Gm1-F5", "Gm1-Q"])
def test_shared_table_keeps_monomials_apart_from_powers(name):
    """The monomial s1^2 = (0, 2) must not be read as the power A_t1^2."""
    variety = RINGS[name]
    ambient = variety.ambient
    p, mats = _noncommuting_setup(variety)

    def mono(a, b):
        return Poly(ambient, {(a, b): variety.field.one})

    entries = [mono(2, 0), mono(0, 2), mono(1, 1), Poly.zero(ambient),
               Poly.const(ambient, 3), mono(1, 0), mono(1, 0)]
    oracle = [term_by_term_corner_eval(p, mats, f) for f in entries]
    assert oracle[0] != oracle[1]
    for order in (entries, entries[::-1]):
        batch = corner_eval(p, mats, order)
        single = [corner_eval(p, mats, [f])[0] for f in order]
        want = oracle if order is entries else oracle[::-1]
        assert batch == single == want


@pytest.mark.parametrize("name", ["Gm1-F5", "Gm1-Q"])
@pytest.mark.parametrize("exponents", [
    [(6, 6), (5, 5)],
    [(6, 0), (0, 6)],
    [(6, 6), (6, 0), (0, 6), (5, 5), (0, 0)],
], ids=["t6s6-t5s5", "t6-s6", "mixed"])
def test_sparse_high_monomials_match_term_by_term(name, exponents):
    """Batches where a corner product's prefixes and the powers of each
    action matrix are different sets of products."""
    variety = RINGS[name]
    p, mats = _noncommuting_setup(variety)
    entries = [Poly(variety.ambient, {a: variety.field.from_int(k + 1)})
               for k, a in enumerate(exponents)]
    oracle = [term_by_term_corner_eval(p, mats, f) for f in entries]
    for order, want in ((entries, oracle), (entries[::-1], oracle[::-1])):
        assert corner_eval(p, mats, order) == want
        assert [corner_eval(p, mats, [f])[0] for f in order] == want
    mixed = sum(entries[1:], entries[0])
    assert corner_eval(p, mats, [mixed]) == [term_by_term_corner_eval(p, mats, mixed)]


@pytest.mark.parametrize("name", ["Gm1-F5", "Gm1-Q"])
def test_unit_monomials_return_their_corner_products(name):
    """A monomial with coefficient one returns the corner product p * A^a
    itself, and every other polynomial is summed; with p not idempotent,
    p * A^a differs from A^a, so a missing factor p would show."""
    variety = RINGS[name]
    ambient, field = variety.ambient, variety.field
    p, mats = _noncommuting_setup(variety)
    assert p * p != p

    def term(a, b, c=1):
        return Poly(ambient, {(a, b): field.from_int(c)})

    entries = [term(2, 1), Poly.one(ambient), term(0, 2, 3), Poly.zero(ambient),
               term(1, 0) + term(0, 1) + Poly.one(ambient), term(1, 0), term(2, 1)]
    oracle = [term_by_term_corner_eval(p, mats, f) for f in entries]
    assert oracle[0] != mats[0] * mats[0] * mats[1]
    for order, want in ((entries, oracle), (entries[::-1], oracle[::-1])):
        got = corner_eval(p, mats, order)
        assert got == want
        assert [str(m) for m in got] == [str(m) for m in want]
    got = corner_eval(p, mats, entries)
    assert got[1] is p
    assert got[0] is got[6]


@pytest.mark.parametrize("name", NAMES)
def test_corner_eval_into_a_point(name):
    """A target with no variables: every polynomial is a constant c, sent to c*p."""
    variety = RINGS[name]
    pt = point(variety.field)
    p = Matrix(variety.gb, [[variety.var(variety.vars[0]), QElem.one(variety.gb)],
                            [QElem.zero(variety.gb), QElem.one(variety.gb)]])
    entries = [Poly.const(pt.ambient, 3), Poly.zero(pt.ambient), Poly.one(pt.ambient)]
    got = corner_eval(p, [], entries)
    assert got == [term_by_term_corner_eval(p, [], f) for f in entries]
    assert got == [p.scale(variety.field.from_int(3)), Matrix.zeros(variety.gb, 2, 2), p]


def _count_corner_evals(monkeypatch, module):
    """Batch sizes of the corner_eval calls made through ``module``."""
    batches = []
    original = module.corner_eval

    def counted(p, action_mats, polys):
        batches.append(len(polys))
        return original(p, action_mats, polys)

    monkeypatch.setattr(module, "corner_eval", counted)
    return batches


@pytest.mark.parametrize("name", NAMES)
def test_each_composition_and_pushforward_makes_one_corner_eval(name, monkeypatch):
    variety = RINGS[name]
    bounds = GenBounds(max_n=2, max_deg=1, max_elementary=1, zero_weight=0.0)
    first = random_object(variety, variety, seed=f"first-{name}", bounds=bounds)
    second = random_object(variety, variety, seed=f"second-{name}", bounds=bounds)
    rng = random.Random(name)
    first_mor = random_morphism_from(first, rng, bounds)
    second_mor = random_morphism_from(second, rng, bounds)
    g = sample_map(variety, variety, rng, max_deg=1)

    batches = _count_corner_evals(monkeypatch, pairing)
    composite = compose_objects(first, second)
    assert batches == [(1 + len(second.gen_images)) * second.n ** 2]
    want_p = [[term_by_term_corner_eval(first.p, first.gen_images, e.rep) for e in row]
              for row in second.p.rows]
    assert composite.p == flatten_blocks(want_p)

    # one call for the source endpoint through the inner source, then one
    # for the target endpoint and the matrix through the inner target
    endpoint = (1 + len(second.gen_images)) * second.n ** 2
    batches.clear()
    compose_morphisms(second_mor, first_mor)
    assert batches == [endpoint, endpoint + second.n ** 2]

    # an identity inner morphism: the same two calls, through its one object
    batches.clear()
    compose_morphisms(second_mor, identity_morphism(first))
    assert batches == [endpoint, endpoint + second.n ** 2]

    # composition with the graph: its unit and one 1 x 1 image per coordinate
    batches.clear()
    pushed = functors.pushforward_obj(g, first)
    assert batches == [1 + len(g.images)]
    assert list(pushed.gen_images) == [
        term_by_term_corner_eval(first.p, first.gen_images, img.rep) for img in g.images]


@pytest.mark.parametrize("debug", [False, True], ids=["release", "debug"])
def test_two_link_composition_builds_no_dense_view(debug, monkeypatch):
    """Composing two links over (Gm1, Gm1), objects and morphisms, reads the
    stored entries only: a kernel path that fell back to the dense ``rows``
    would bring back the zero handling sparse storage removes."""
    gm = gm_power(1, QQ)
    bounds = GenBounds(max_n=3, max_deg=1, max_elementary=2, zero_weight=0.0)
    rng = random.Random("two-link")
    first, second = (random_object(gm, gm, seed=f"sparse-{k}", bounds=bounds)
                     for k in (0, 4))
    first_mor, second_mor = (random_morphism_from(obj, rng, bounds)
                             for obj in (first, second))
    read = []
    dense_view = Matrix.__dict__["rows"].fget

    def recorded(mat):
        read.append(mat)
        return dense_view(mat)

    monkeypatch.setattr(Matrix, "rows", property(recorded))
    with debug_validation(debug):
        composite = compose_objects(first, second)
        mor = compose_morphisms(second_mor, first_mor)
    assert (composite.n, mor.src.n) == (6, 6)
    assert not composite.p.is_zero() and not mor.mat.is_zero()
    assert read == []


def test_product_over_different_rings_raises():
    gm5, t3, gmq = (RINGS[k].gb for k in ("Gm1-F5", "T3-F5", "Gm1-Q"))
    a = Matrix.identity(gm5, 2)
    for other in (t3, gmq):
        with pytest.raises(AmbientMismatch):
            a * Matrix.identity(other, 2)
        with pytest.raises(AmbientMismatch):
            Matrix(gm5, [[QElem.one(other)]])


def test_ragged_data_raises():
    gb = RINGS["T3-Q"].gb
    one = QElem.one(gb)
    with pytest.raises(ShapeError):
        Matrix(gb, [[one, one], [one]])
    with pytest.raises(ShapeError):
        Matrix(gb, [[one]], 1, 2)


def test_dict_and_dense_construction_agree():
    gb = RINGS["T3-Q"].gb
    zero, one, y = QElem.zero(gb), QElem.one(gb), QElem.variable(gb, "y")
    dense = Matrix(gb, [[y, zero, zero], [zero, zero, one - y]])
    filled = {(0, 0): y, (1, 2): one - y}
    for order in (filled, dict(reversed(filled.items()))):
        built = Matrix(gb, order, 2, 3)
        assert built == dense and hash(built) == hash(dense)
        assert repr(built) == repr(dense)
    # zero entries are dropped, given in either form
    assert dense.entries == filled
    with_zeros = Matrix(gb, {(1, 1): zero, **filled, (0, 2): y - y}, 2, 3)
    assert with_zeros.entries == filled and with_zeros == dense
    # the dense view holds the basis's shared zero off the stored entries
    assert Matrix(gb, filled, 2, 3).rows == ((y, zero, zero), (zero, zero, one - y))
    assert Matrix(gb, filled, 2, 3).rows[0][1] is zero


@pytest.mark.parametrize("entries", [{(2, 0): None}, {(0, 3): None},
                                     {(-1, 0): None}, {(0, -1): None}],
                         ids=["row", "column", "negative-row", "negative-column"])
def test_entry_outside_the_shape_raises(entries):
    gb = RINGS["T3-Q"].gb
    one = QElem.one(gb)
    assert Matrix(gb, {(1, 2): one}, 2, 3)[1, 2] == one
    with pytest.raises(ShapeError):
        Matrix(gb, {(1, 2): one, **{pos: one for pos in entries}}, 2, 3)


def test_dict_construction_checks_ring_and_shape():
    gb, other = RINGS["Gm1-F5"].gb, RINGS["Gm1-Q"].gb
    with pytest.raises(AmbientMismatch):
        Matrix(gb, {(0, 0): QElem.one(other)}, 1, 1)
    with pytest.raises(ShapeError):
        Matrix(gb, {(0, 0): QElem.one(gb)})


@pytest.mark.parametrize("nrows, ncols", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes(nrows, ncols):
    gb = RINGS["Gm1-Q"].gb
    built = Matrix(gb, {}, nrows, ncols)
    dense = Matrix(gb, [[]] * nrows, nrows, ncols)
    assert built == dense == Matrix.zeros(gb, nrows, ncols)
    assert hash(built) == hash(dense)
    assert built.entries == {} and built.is_zero()
    assert built.rows == ((),) * nrows
    assert built * Matrix.zeros(gb, ncols, 2) == Matrix.zeros(gb, nrows, 2)
    assert Matrix.zeros(gb, 2, nrows) * built == Matrix.zeros(gb, 2, ncols)
    assert Matrix.block_diag(gb, [built, Matrix.identity(gb, 1)]) == Matrix(
        gb, {(nrows, ncols): QElem.one(gb)}, nrows + 1, ncols + 1)


def test_separately_built_equal_bases_compare_equal():
    variety = RINGS["Gm1-Q"]
    twin = GroebnerBasis(variety.gb.ambient, variety.gb.gens)
    assert twin is not variety.gb
    assert twin == variety.gb and hash(twin) == hash(variety.gb)
    a = Matrix(variety.gb, [[QElem(twin, variety.var("t1").rep)]])
    b = Matrix(twin, [[variety.var("s1")]])
    assert a * b == Matrix.identity(twin, 1) == Matrix.identity(variety.gb, 1)


def _reduced_basis(label):
    kind, name = label.split(":")
    if kind == "ring":
        return buchberger(RINGS[name].ideal_gens, RINGS[name].ambient)
    if kind == "zero-ideal":
        return buchberger([], Ambient(("x", "y"), QQ if name == "Q" else F5))
    case = next(c for c in GOLDEN if c["name"] == name)
    ambient = Ambient(tuple(case["vars"]), QQ if case["field"] == "Q" else F5,
                      case["order"])
    return buchberger([parse_poly(g, ambient) for g in case["gens"]], ambient)


def _fresh_basis(label):
    """An equal copy of the shared basis, so its memo of monomial normal
    forms is empty."""
    basis = _reduced_basis(label)
    return GroebnerBasis(basis.ambient, basis.gens)


def _random_poly(ambient, rng, max_exp=6, max_terms=6):
    scalars = ambient.field.elements_sample()
    return Poly(ambient, {tuple(rng.randint(0, max_exp) for _ in ambient.vars):
                          rng.choice(scalars) for _ in range(rng.randint(1, max_terms))})


@pytest.mark.parametrize("label", [f"ring:{name}" for name in NAMES]
                         + [f"golden:{case['name']}" for case in GOLDEN]
                         + ["zero-ideal:Q", "zero-ideal:F5"])
def test_memoized_normal_form_matches_full_reduction(label):
    basis = _fresh_basis(label)
    ambient = basis.ambient
    rng = random.Random(label)
    inputs = [Poly.zero(ambient)] + [_random_poly(ambient, rng) for _ in range(40)]
    # multiples of the generators, whose monomial images cancel to zero
    multiples = [g * _random_poly(ambient, rng, max_exp=3) for g in basis.gens]
    inputs += multiples
    want = [reduce_poly(f, basis.gens) for f in inputs]
    assert all(f.is_zero() for f in want[len(want) - len(multiples):])
    cold = [basis.normal_form(f) for f in inputs]
    warm = [basis.normal_form(f) for f in inputs]
    # an equal basis built apart keeps its own memo, filled in reverse order
    twin = GroebnerBasis(ambient, basis.gens)
    assert twin is not basis and twin == basis
    twin_forms = [twin.normal_form(f) for f in inputs[::-1]][::-1]
    for got in (cold, warm, twin_forms):
        assert got == want
        assert [str(f) for f in got] == [str(f) for f in want]


def test_subtraction_and_negation():
    gb = RINGS["T3-Q"].gb
    y = QElem.variable(gb, "y")
    a = Matrix(gb, [[y, QElem.one(gb)]])
    b = Matrix(gb, [[y * y * y, y]])
    assert a - b == a + (-b) == Matrix(gb, [[QElem.zero(gb), QElem.one(gb) - y]])
    assert -(-a) == a and (a - a).is_zero()


@pytest.mark.parametrize("op, message", [
    (lambda a, b: a + b, "matrix addition shape mismatch"),
    (lambda a, b: a - b, "matrix subtraction shape mismatch"),
    (lambda a, b: a * b, "cannot multiply 2x1 by 2x2"),
], ids=["add", "sub", "mul"])
def test_shape_errors(op, message):
    gb = RINGS["T3-Q"].gb
    square = Matrix.identity(gb, 2)
    column = Matrix(gb, [row[:1] for row in square.rows], 2, 1)
    with pytest.raises(ShapeError) as info:
        op(column, square)
    assert info.value.detail == message
