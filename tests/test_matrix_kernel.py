"""The sparse matrix product and corner evaluation against dense oracles.

Rings: Gm1 = k[t1, s1]/(t1*s1 - 1) and T3 = k[y]/(y^3 - y), over F5 and Q.
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_matrix_product, term_by_term_corner_eval
from kcorr.corrcat import CorrObject, corner_eval
from kcorr.errors import AmbientMismatch, ShapeError
from kcorr.exactalg import GroebnerBasis, Matrix, Poly, PrimeField, QElem, QQ
from kcorr.pairing import _eval_blocks_flat, flatten_blocks
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
    assert corner_eval(p, mats, poly) == term_by_term_corner_eval(p, mats, poly)


@pytest.mark.parametrize("name", NAMES)
@SETTINGS
@given(data=st.data())
def test_shared_power_table_matches_fresh_tables(name, data):
    variety = RINGS[name]
    n = data.draw(st.integers(1, 3))
    p, mats = draw_square_setup(data, variety, n)
    r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    outer = data.draw(matrices(variety, r, c))
    powers = {}
    shared = [[corner_eval(p, mats, e.rep, powers) for e in row] for row in outer.rows]
    fresh = [[corner_eval(p, mats, e.rep) for e in row] for row in outer.rows]
    oracle = [[term_by_term_corner_eval(p, mats, e.rep) for e in row]
              for row in outer.rows]
    assert shared == fresh == oracle
    obj = CorrObject(variety, variety, n, p, tuple(mats))
    assert _eval_blocks_flat(obj, outer) == flatten_blocks(oracle, basis=variety.gb)


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
        table = {}
        shared = [corner_eval(p, mats, f, table) for f in order]
        fresh = [corner_eval(p, mats, f) for f in order]
        want = oracle if order is entries else oracle[::-1]
        assert shared == fresh == want


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
