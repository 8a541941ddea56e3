"""The sparse matrix product and corner evaluation against dense oracles.

Also counts the corner evaluations each composition and pushforward makes:
one batch call each, carrying every entry the operation evaluates.

Rings: Gm1 = k[t1, s1]/(t1*s1 - 1) and T3 = k[y]/(y^3 - y), over F5 and Q.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_matrix_product, term_by_term_corner_eval
from kcorr import functors, pairing
from kcorr.corrcat import CorrObject, corner_eval
from kcorr.errors import AmbientMismatch, ShapeError
from kcorr.exactalg import GroebnerBasis, Matrix, Poly, PrimeField, QElem, QQ
from kcorr.pairing import (_eval_blocks_flat, compose_morphisms, compose_objects,
                           flatten_blocks)
from kcorr.randomgen import GenBounds, random_morphism_from, random_object, sample_map
from kcorr.varieties import gm_power, make_variety

F5 = PrimeField(5)
RINGS = {
    "Gm1-F5": gm_power(1, F5),
    "Gm1-Q": gm_power(1, QQ),
    "T3-F5": make_variety("T3", ["y"], ["y^3 - y"], F5),
    "T3-Q": make_variety("T3", ["y"], ["y^3 - y"], QQ),
}
NAMES = sorted(RINGS)
SETTINGS = settings(max_examples=30, deadline=None)


def polys(variety, max_exp=3):
    monos = st.tuples(*[st.integers(0, max_exp) for _ in variety.vars])
    scalars = st.sampled_from(variety.field.elements_sample())
    return st.dictionaries(monos, scalars, max_size=3).map(
        lambda terms: Poly(variety.ambient, terms))


def entries(variety):
    """Mostly zero entries, so products are sparse."""
    zero = QElem.zero(variety.gb)
    return st.one_of(st.just(zero), st.just(zero),
                     polys(variety).map(lambda f: QElem(variety.gb, f)))


@st.composite
def matrices(draw, variety, nrows, ncols):
    entry = entries(variety)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    zero = QElem.zero(variety.gb)
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [zero] * ncols
    if ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = zero
    return Matrix(variety.gb, rows, nrows, ncols)


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
    poly = data.draw(polys(variety))
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


@pytest.mark.parametrize("name", ["Gm1-F5", "Gm1-Q"])
def test_shared_table_keeps_monomials_apart_from_powers(name):
    """The monomial s1^2 = (0, 2) must not be read as the power A_t1^2."""
    variety = RINGS[name]
    gb, ambient = variety.gb, variety.ambient
    one, zero, t, s = (QElem.one(gb), QElem.zero(gb), variety.var("t1"),
                       variety.var("s1"))
    p = Matrix(gb, [[one, t], [zero, one.scale(variety.field.from_int(2))]])
    mats = [Matrix(gb, [[t, one], [zero, s]]), Matrix(gb, [[s, zero], [one, t]])]

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

    batches.clear()
    compose_morphisms(second_mor, first_mor)
    # one call for each of the two composed endpoints, one for the matrix
    assert len(batches) == 3
    assert batches[-1] == second.n ** 2

    # composition with the graph: its unit and one 1 x 1 image per coordinate
    batches.clear()
    pushed = functors.pushforward_obj(g, first)
    assert batches == [1 + len(g.images)]
    assert list(pushed.gen_images) == [
        term_by_term_corner_eval(first.p, first.gen_images, img.rep) for img in g.images]


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


def test_separately_built_equal_bases_compare_equal():
    variety = RINGS["Gm1-Q"]
    twin = GroebnerBasis(variety.gb.ambient, variety.gb.gens)
    assert twin is not variety.gb
    assert twin == variety.gb and hash(twin) == hash(variety.gb)
    a = Matrix(variety.gb, [[QElem(twin, variety.var("t1").rep)]])
    b = Matrix(twin, [[variety.var("s1")]])
    assert a * b == Matrix.identity(twin, 1) == Matrix.identity(variety.gb, 1)


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
