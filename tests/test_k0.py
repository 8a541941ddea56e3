import random
from fractions import Fraction

import pytest

from oracles import field_gauss_rank, field_ops, fraction_pair_rank
from kcorr.corrcat import (IsoCertificate, direct_sum, identity_morphism,
                           make_correspondence, verify_iso, zero_object)
from kcorr.errors import (AmbientMismatch, InvalidCertificate, NotIntegral, ShapeError,
                          UnknownObject)
from kcorr.exactalg import (Matrix, PrimeField, QElem, QQ, rank_factorization,
                            rank_over_fraction_field, scalar_value)
from kcorr import k0
from kcorr.k0 import (K0Class, K0Ledger, bracket, k0_class, k0_compose, k0_register,
                      k0_register_sum, pt_conjugation_certificate, rank,
                      transport_certificate)
from kcorr.pairing import compose_objects
from kcorr.randomgen import (GenBounds, derive_seed, random_object, random_poly,
                             random_scalar)
from kcorr.varieties import gm_power, make_variety, point

PT_BOUNDS = GenBounds(max_n=3, max_deg=1, max_elementary=2, zero_weight=0.05)


def test_rank_examples():
    pt = point(QQ)
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    assert rank(zero_object(pt, pt)) == 0
    assert rank(make_correspondence(pt, pt, 2, Matrix.diagonal(b, [one, zero]), [])) == 1


def test_rank_conjugated_idempotent_over_line():
    line = make_variety("A1", ["x"], [], QQ)
    b = line.gb
    one, zero = QElem.one(b), QElem.zero(b)
    x = line.var("x")
    # conjugate diag(1,1,0) by elementary matrices with polynomial entries
    e1 = Matrix(b, [[one, x, zero], [zero, one, zero], [zero, zero, one]])
    e1i = Matrix(b, [[one, -x, zero], [zero, one, zero], [zero, zero, one]])
    e2 = Matrix(b, [[one, zero, zero], [zero, one, zero], [x * x, zero, one]])
    e2i = Matrix(b, [[one, zero, zero], [zero, one, zero], [-(x * x), zero, one]])
    u, u_inv = e1 * e2, e2i * e1i
    p = u * Matrix.diagonal(b, [one, one, zero]) * u_inv
    obj = make_correspondence(line, point(QQ), 3, p, [])
    assert rank(obj) == 2


def test_rank_requires_integrality_assertion():
    two = make_variety("TwoPts", ["y"], ["y^2 - y"], QQ)
    b = two.gb
    obj = make_correspondence(two, point(QQ), 1, Matrix.identity(b, 1), [])
    with pytest.raises(NotIntegral):
        rank(obj)
    assert rank(obj, assume_integral=True) == 1


def test_rank_matches_gauss_oracle_over_point():
    for field_label, field in (("Q", QQ), ("F5", PrimeField(5))):
        pt = point(field)
        rng = random.Random(derive_seed("rank-oracle", field_label))
        ops = field_ops(field_label)
        for _ in range(40):
            obj = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
            if obj.n == 0:
                assert rank(obj) == 0
                continue
            rows = [[scalar_value(e) for e in row] for row in obj.p.rows]
            assert rank(obj) == field_gauss_rank(rows, ops)


def test_conjugation_certificate_search():
    # the second bound reaches past n = 3: rank factorizations exist at every size
    for bounds in (PT_BOUNDS, GenBounds(max_n=5, max_deg=1, max_elementary=3,
                                        zero_weight=0.05)):
        for field in (QQ, PrimeField(5)):
            pt = point(field)
            rng = random.Random(derive_seed("certsearch", field.name, bounds.max_n))
            for _ in range(40):
                a = random_object(pt, pt, rng=rng, bounds=bounds)
                b2 = random_object(pt, pt, rng=rng, bounds=bounds)
                cert = pt_conjugation_certificate(a, b2)
                if rank(a) == rank(b2):
                    assert cert is not None and verify_iso(cert)
                else:
                    assert cert is None


def _random_poly_matrix(x, rng, nrows, ncols):
    return Matrix(x.gb, [[x.qelem(random_poly(x, rng, 2, 2)) for _ in range(ncols)]
                         for _ in range(nrows)], nrows, ncols)


@pytest.mark.parametrize("base", ["A1", "Gm1"])
def test_rank_matches_fraction_pair_oracle(base):
    bounds = GenBounds(max_n=4, max_deg=2, max_elementary=3, zero_weight=0.05)
    for field in (QQ, PrimeField(5)):
        x = (make_variety("A1", ["x"], [], field) if base == "A1"
             else gm_power(1, field))
        rng = random.Random(derive_seed("fraction-rank", base, field.name))
        for _ in range(12):
            obj = random_object(x, point(field), rng=rng, bounds=bounds)
            assert rank(obj, assume_integral=True) == fraction_pair_rank(obj.p)
            # U*V with U n x r and V r x n: rank at most r, not an idempotent
            n, r = rng.randint(1, 4), rng.randint(0, 3)
            m = _random_poly_matrix(x, rng, n, r) * _random_poly_matrix(x, rng, r, n)
            assert rank_over_fraction_field(m) == fraction_pair_rank(m) <= r


def test_rank_factorization():
    for field_label, field in (("Q", QQ), ("F5", PrimeField(5))):
        pt = point(field)
        b = pt.gb
        ops = field_ops(field_label)
        rng = random.Random(derive_seed("rank-factorization", field_label))
        for _ in range(40):
            # any shape, including n = 0 and all-zero matrices (r = 0)
            nrows, ncols = rng.randint(0, 4), rng.randint(0, 4)
            values = [[random_scalar(field, rng) if rng.random() < 0.7 else field.zero
                       for _ in range(ncols)] for _ in range(nrows)]
            m = Matrix(b, [[QElem.const(b, v) for v in row] for row in values],
                       nrows, ncols)
            left, right = rank_factorization(m)
            r = field_gauss_rank(values, ops)
            assert (left.nrows, left.ncols, right.nrows, right.ncols) == (nrows, r, r, ncols)
            assert left * right == m
        left, right = rank_factorization(Matrix.zeros(b, 3, 2))
        assert (left.ncols, right.nrows) == (0, 0)
        assert left * right == Matrix.zeros(b, 3, 2)
        for _ in range(40):
            obj = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
            left, right = rank_factorization(obj.p)
            assert left * right == obj.p
            assert right * left == Matrix.identity(b, rank(obj))
    line = make_variety("A1", ["x"], [], QQ)
    with pytest.raises(ShapeError):
        rank_factorization(Matrix(line.gb, [[line.var("x")]]))


def test_ledger_registration_and_certificates():
    pt = point(QQ)
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    a = make_correspondence(pt, pt, 2, Matrix.diagonal(b, [one, zero]), [])
    half = QElem.const(b, Fraction(1, 2))
    c = make_correspondence(pt, pt, 2, Matrix(b, [[half, half], [half, half]]), [])
    ledger = K0Ledger(pt, pt)
    ia, ic = ledger.register(a), ledger.register(c)
    assert ledger.find(ia) != ledger.find(ic)
    ident = identity_morphism(a)
    k0_register(ledger, IsoCertificate(ident, ident))  # no-op merge
    assert ledger.find(ia) != ledger.find(ic)
    cert = pt_conjugation_certificate(a, c)
    k0_register(ledger, cert)
    assert ledger.find(ia) == ledger.find(ic)
    k0_register(ledger, cert)  # idempotent
    assert len(ledger.classes()) == 1
    bad = IsoCertificate(identity_morphism(a),
                         identity_morphism(c))
    with pytest.raises(InvalidCertificate):
        k0_register(ledger, bad)


def test_class_normalization_and_sum_rules():
    pt = point(QQ)
    rng = random.Random(1)
    a = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
    b2 = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
    s = direct_sum(a, b2)
    ledger = K0Ledger(pt, pt)
    k0_register_sum(ledger, s, a, b2)
    assert k0_class(ledger, [(1, s), (-1, a), (-1, b2)]).is_zero()
    z = zero_object(pt, pt)
    ledger.register(z)
    assert k0_class(ledger, [(1, z)]).is_zero()
    # a zero part degenerates to data identity and records no rule
    k0_register_sum(ledger, direct_sum(a, z), a, z)
    assert k0_class(ledger, [(1, direct_sum(a, z)), (-1, a)]).is_zero()
    with pytest.raises(UnknownObject):
        k0_class(ledger, [(1, random_object(pt, pt, seed=99, bounds=PT_BOUNDS))])
    with pytest.raises(InvalidCertificate):
        k0_register_sum(ledger, a, a, b2)


def test_partition_equals_rank_fibers_with_search():
    for field in (QQ, PrimeField(5)):
        pt = point(field)
        rng = random.Random(derive_seed("fibers", field.name))
        objs = [random_object(pt, pt, rng=rng, bounds=PT_BOUNDS) for _ in range(25)]
        ledger = K0Ledger(pt, pt)
        ids = [ledger.register(o) for o in objs]
        for i in ids:
            for j in ids:
                if j <= i:
                    continue
                cert = pt_conjugation_certificate(ledger.object_of(i),
                                                  ledger.object_of(j))
                if cert is not None:
                    k0_register(ledger, cert)
        fibers = {}
        for i in ids:
            fibers.setdefault(rank(ledger.object_of(i)), set()).add(ledger.find(i))
        # partition must be exactly the rank fibers
        assert len(ledger.classes()) == len(fibers)
        for roots in fibers.values():
            assert len(roots) == 1


def test_rank_is_additive_and_iso_invariant():
    pt = point(QQ)
    rng = random.Random(17)
    for _ in range(25):
        a = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
        b2 = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
        assert rank(direct_sum(a, b2)) == rank(a) + rank(b2)
        cert = pt_conjugation_certificate(a, b2)
        if cert is not None:
            assert rank(a) == rank(b2)


def test_compose_bilinearity_through_sum_rules():
    pt = point(QQ)
    rng = random.Random(19)
    a = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
    b2 = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
    psi = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
    s = direct_sum(a, b2)
    first, second, target = K0Ledger(pt, pt), K0Ledger(pt, pt), K0Ledger(pt, pt)
    k0_register_sum(first, s, a, b2)
    second.register(psi)
    combined = k0_compose(first, second, [(1, s)], [(1, psi)], target)
    split = k0_compose(first, second, [(1, a), (1, b2)], [(1, psi)], target)
    assert combined == split


def test_compose_classes_and_transport():
    pt = point(QQ)
    rng = random.Random(3)
    a = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
    b2 = random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
    lv, lu, lt = K0Ledger(pt, pt), K0Ledger(pt, pt), K0Ledger(pt, pt)
    lv.register(a)
    lu.register(b2)
    cls = k0_compose(lv, lu, [(1, a)], [(1, b2)], lt)
    rep = lt.object_of(cls.terms[0][0]) if cls.terms else zero_object(pt, pt)
    assert rank(rep) == rank(a) * rank(b2)
    # composing with the identity-graph class keeps the class
    from kcorr.corrcat import identity_object
    ident = identity_object(pt)
    lu2 = K0Ledger(pt, pt)
    lu2.register(ident)
    lt2 = K0Ledger(pt, pt)
    cls2 = k0_compose(lv, lu2, [(1, a)], [(1, ident)], lt2)
    if cls2.terms:
        rep2 = lt2.object_of(cls2.terms[0][0])
        assert rep2 == compose_objects(a, ident) == a
    # well-definedness through a transported certificate between a and a
    # conjugate of it by an invertible scalar matrix
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    s = Matrix(b, [[one if i == j else QElem.const(b, i + 1) if j == 0 else zero
                    for j in range(a.n)] for i in range(a.n)])
    # s is unipotent: its inverse negates the entries below the diagonal
    s_inv = Matrix(b, [[one if i == j else -QElem.const(b, i + 1) if j == 0 else zero
                        for j in range(a.n)] for i in range(a.n)])
    assert s * s_inv == Matrix.identity(b, a.n)
    a2 = make_correspondence(pt, pt, a.n, s * a.p * s_inv, [])
    assert a2 != a
    iso = pt_conjugation_certificate(a, a2)
    assert verify_iso(iso)
    transported = transport_certificate(iso, b2, side="right")
    assert verify_iso(transported)
    assert transported.fwd.src == compose_objects(a, b2)
    assert transported.fwd.dst == compose_objects(a2, b2)


@pytest.mark.parametrize("side", ["left", "right"])
def test_transport_certificate_on_both_sides(side):
    pt = point(QQ)
    rng = random.Random(derive_seed("transport", side))
    transported = 0
    for _ in range(40):
        a, b2, other = (random_object(pt, pt, rng=rng, bounds=PT_BOUNDS)
                        for _ in range(3))
        cert = pt_conjugation_certificate(a, b2)
        if a == b2 or a.n == 0 or cert is None:
            continue
        moved = transport_certificate(cert, other, side=side)
        assert verify_iso(moved)
        pair = ((lambda obj: compose_objects(obj, other)) if side == "right"
                else (lambda obj: compose_objects(other, obj)))
        assert (moved.fwd.src, moved.fwd.dst) == (pair(a), pair(b2))
        transported += 1
    assert transported >= 5


def test_ledger_compresses_paths_and_keeps_the_smallest_root():
    pt = point(QQ)
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    objs = [make_correspondence(pt, pt, len(diag), Matrix.diagonal(b, diag), [])
            for diag in ([one], [one, zero], [zero, one], [zero, zero, one])]
    ledger = K0Ledger(pt, pt)
    assert [ledger.register(o) for o in objs] == [0, 1, 2, 3]
    for i, j in ((2, 3), (1, 2)):  # builds the chain 3 -> 2 -> 1
        k0_register(ledger, pt_conjugation_certificate(objs[i], objs[j]))
    assert ledger._parent == [0, 1, 1, 2]
    # finding 3 compresses its path to root 1; root 0 is smaller and wins
    k0_register(ledger, pt_conjugation_certificate(objs[3], objs[0]))
    assert ledger._parent == [0, 0, 1, 1]
    assert ledger.classes() == [[0, 1, 2, 3]]
    assert k0_class(ledger, [(1, objs[3]), (-1, objs[0])]).is_zero()
    cls = k0_class(ledger, [(2, objs[2]), (1, objs[1])])
    assert cls == K0Class(((0, 3),)) and repr(cls) == "K0Class(3*[0])"
    assert repr(k0_class(ledger, [])) == "K0Class(0)"


def _diagonal_objects(x, y, diagonals):
    """One object over (x, y) per 0/1 diagonal of its idempotent."""
    entries = (x.zero(), x.one())
    return [make_correspondence(x, y, len(d),
                                Matrix.diagonal(x.gb, [entries[e] for e in d]), [])
            for d in diagonals]


def test_bracket_over_a_point_merges_by_verified_certificates(monkeypatch):
    pt = point(QQ)
    half = pt.qelem("1/2")
    swapped = make_correspondence(pt, pt, 2, Matrix(pt.gb, [[half, half], [half, half]]),
                                  [])
    objs = _diagonal_objects(pt, pt, ([1, 0], [1], [1, 1])) + [swapped]
    found = []

    def recording(a, b2):
        cert = pt_conjugation_certificate(a, b2)
        found.append(cert)
        return cert

    monkeypatch.setattr(k0, "pt_conjugation_certificate", recording)
    ledger, ranks, unresolved = bracket(objs + objs[:1])  # a repeat registers once
    assert len(found) == 6  # one search per pair of the four distinct objects
    certs = [c for c in found if c is not None]
    assert len(certs) == 3 and all(verify_iso(c) for c in certs)
    assert ranks == {0: 1, 1: 1, 2: 2, 3: 1}
    assert ledger.classes() == [[0, 1, 3], [2]]
    assert unresolved == []


def test_bracket_over_a_base_with_relations_neither_searches_nor_ranks(monkeypatch):
    two = make_variety("TwoPts", ["y"], ["y^2 - y"], QQ)
    calls = []
    monkeypatch.setattr(k0, "pt_conjugation_certificate",
                        lambda *a: calls.append("certificate"))
    monkeypatch.setattr(k0, "rank", lambda *a: calls.append("rank"))
    objs = [make_correspondence(two, point(QQ), 1, Matrix(two.gb, [[m]]), [])
            for m in (two.one(), two.var("y"))]
    ledger, ranks, unresolved = bracket(objs)
    assert calls == [] and ranks is None
    assert ledger.classes() == [[0], [1]]
    assert unresolved == [(0, 1)]


def test_bracket_over_a_line_separates_by_rank():
    line = make_variety("A1", ["x"], [], QQ)
    objs = _diagonal_objects(line, point(QQ), ([1], [1, 0], [1, 1], [0, 1, 0]))
    ledger, ranks, unresolved = bracket(objs)
    assert ranks == {0: 1, 1: 1, 2: 2, 3: 1}
    assert ledger.classes() == [[0], [1], [2], [3]]
    assert unresolved == [(0, 1), (0, 3), (1, 3)]


def test_objects_over_the_wrong_varieties_are_refused():
    pt, line = point(QQ), make_variety("A1", ["x"], [], QQ)
    [a] = _diagonal_objects(pt, pt, ([1],))
    [over_line] = _diagonal_objects(line, pt, ([1],))
    [over_f5] = _diagonal_objects(point(PrimeField(5)), point(PrimeField(5)), ([1],))
    with pytest.raises(AmbientMismatch) as err:
        pt_conjugation_certificate(over_line, over_line)
    assert err.value.detail == "conjugation search is only available over (pt, pt)"
    with pytest.raises(AmbientMismatch) as err:
        pt_conjugation_certificate(a, over_f5)
    assert err.value.detail == "objects over different (X, Y)"
    with pytest.raises(AmbientMismatch) as err:
        K0Ledger(pt, pt).register(over_line)
    assert err.value.detail == "object over a different (X, Y) than the ledger"
