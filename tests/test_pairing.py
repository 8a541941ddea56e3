import itertools
import random

import pytest

from mutants import doubled_flatten, shuffled_flatten
from oracles import dense_kron
from kcorr import corrcat, pairing
from kcorr.config import debug_validation
from kcorr.corrcat import (compose_vertical, direct_sum, graph_object,
                           identity_morphism, identity_object,
                           make_corr_morphism, make_correspondence,
                           zero_morphism, zero_object, verify_iso)
from kcorr.errors import (AmbientMismatch, BudgetExceeded, InternalLawViolation,
                          InvalidMorphism, ShapeError)
from kcorr.exactalg import Matrix, PrimeField, QElem, QQ, scalar_value
from kcorr.laws import law_pool
from kcorr.pairing import (compose_morphisms, compose_objects,
                           flatten_blocks, strict_associativity_check,
                           sum_split_certificate_inner,
                           sum_split_certificate_outer)
from kcorr.randomgen import (GenBounds, random_morphism_from, random_object,
                             derive_seed)
from kcorr.varieties import compose_maps, gm_power, make_morphism

BOUNDS = GenBounds(max_n=2, max_deg=1, max_elementary=1, zero_weight=0.0)


@pytest.fixture
def pools():
    return {field: law_pool(field) for field in (QQ, PrimeField(5))}


def _scalar_matrix(basis, rows):
    field = basis.ambient.field
    return Matrix(basis, [[QElem.const(basis, field.from_int(v)) for v in r]
                          for r in rows])


def test_flatten_identity_and_single_block(pools):
    pt = pools[QQ][0]
    b = pt.gb
    blk = _scalar_matrix(b, [[1, 2], [3, 4]])
    assert flatten_blocks([[blk]]) == blk
    ident = Matrix.identity(b, 2)
    zero = Matrix.zeros(b, 2, 2)
    assert flatten_blocks([[ident, zero], [zero, ident]]) == Matrix.identity(b, 4)


def test_flatten_is_multiplicative(pools):
    pt = pools[QQ][0]
    b = pt.gb
    rng = random.Random(13)

    def rand_block():
        return _scalar_matrix(b, [[rng.randint(-3, 3) for _ in range(2)]
                                  for _ in range(2)])

    for _ in range(25):
        blocks_a = [[rand_block() for _ in range(2)] for _ in range(2)]
        blocks_b = [[rand_block() for _ in range(2)] for _ in range(2)]
        prod_blocks = [
            [blocks_a[i][0] * blocks_b[0][j] + blocks_a[i][1] * blocks_b[1][j]
             for j in range(2)]
            for i in range(2)
        ]
        assert flatten_blocks(prod_blocks) == \
            flatten_blocks(blocks_a) * flatten_blocks(blocks_b)


def test_flatten_rejects_ragged(pools):
    pt = pools[QQ][0]
    b = pt.gb
    with pytest.raises(ShapeError):
        flatten_blocks([[Matrix.identity(b, 2), Matrix.identity(b, 1)],
                        [Matrix.identity(b, 1), Matrix.identity(b, 1)]])
    with pytest.raises(ShapeError) as err:
        flatten_blocks([[Matrix.identity(b, 1)], []])
    assert err.value.detail == "ragged block matrix"
    with pytest.raises(ShapeError) as err:
        flatten_blocks([])
    assert err.value.detail == "cannot flatten an empty block matrix"
    with pytest.raises(ShapeError) as err:
        flatten_blocks([[]])
    assert err.value.detail == "cannot flatten an empty block matrix"


def test_one_by_one_flattening_is_its_block_after_the_checks(pools):
    b = pools[QQ][0].gb
    blk = _scalar_matrix(b, [[1, 2], [3, 4]])
    assert flatten_blocks([[blk]]) is blk
    with pytest.raises(ShapeError, match="square"):
        flatten_blocks([[_scalar_matrix(b, [[1, 2]])]])
    other = _scalar_matrix(pools[QQ][1].gb, [[1, 2], [3, 4]])
    with pytest.raises(AmbientMismatch, match="different rings"):
        flatten_blocks([[blk, other]])


def test_unit_laws_exact(pools):
    for field, (pt, line, two, gm) in pools.items():
        rng = random.Random(derive_seed("units", field.name))
        for x, y in [(pt, two), (line, two), (line, gm), (pt, pt)]:
            obj = random_object(x, y, rng=rng, bounds=BOUNDS)
            assert compose_objects(identity_object(x), obj) == obj
            assert compose_objects(obj, identity_object(y)) == obj


def test_middle_mismatch(pools):
    pt, line, two, gm = pools[QQ]
    a = random_object(pt, two, rng=random.Random(1), bounds=BOUNDS)
    b2 = random_object(line, gm, rng=random.Random(2), bounds=BOUNDS)
    with pytest.raises(AmbientMismatch):
        compose_objects(a, b2)
    with pytest.raises(AmbientMismatch) as err:
        compose_morphisms(identity_morphism(b2), identity_morphism(a))
    assert err.value.detail == "middle variety mismatch: TwoPts vs A1"


def _refuse_evaluation(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a composite was evaluated past its budget")
    monkeypatch.setattr(pairing, "_eval_blocks_flat", forbidden)


def test_composite_budget_refuses_before_evaluating(pools, monkeypatch):
    pt = pools[QQ][0]
    big = make_correspondence(pt, pt, 32, Matrix.identity(pt.gb, 32), ())
    _refuse_evaluation(monkeypatch)
    with pytest.raises(BudgetExceeded) as err:
        compose_objects(big, big)
    assert err.value.detail == ("composite too large: n = 1024 gives 1,048,576 "
                                "entries, more than 1,000,000")
    with pytest.raises(BudgetExceeded):
        compose_morphisms(identity_morphism(big), identity_morphism(big))


def test_composite_budget_admits_its_limit(pools, monkeypatch):
    pt = pools[QQ][0]
    two, three = (make_correspondence(pt, pt, n, Matrix.identity(pt.gb, n), ())
                  for n in (2, 3))
    monkeypatch.setattr(pairing, "MAX_COMPOSITE_ENTRIES", 16)
    assert compose_objects(two, two).n == 4
    assert compose_morphisms(identity_morphism(two), identity_morphism(two)).mat.nrows == 4
    _refuse_evaluation(monkeypatch)
    with pytest.raises(BudgetExceeded, match="36 entries, more than 16"):
        compose_objects(two, three)
    with pytest.raises(BudgetExceeded):
        compose_morphisms(identity_morphism(three), identity_morphism(two))


def test_kronecker_rank_over_point(pools):
    from kcorr.k0 import rank
    pt = pools[QQ][0]
    rng = random.Random(31)
    for _ in range(25):
        a = random_object(pt, pt, rng=rng, bounds=GenBounds(max_n=3, zero_weight=0.0))
        b2 = random_object(pt, pt, rng=rng, bounds=GenBounds(max_n=3, zero_weight=0.0))
        assert rank(compose_objects(a, b2)) == rank(a) * rank(b2)


def test_graph_functoriality(pools):
    pt, line, two, gm = pools[QQ]
    f = make_morphism(line, line, ["x^2 + 1"])
    g = make_morphism(line, line, ["x - 3"])
    assert compose_objects(graph_object(f), graph_object(g)) == \
        graph_object(compose_maps(g, f))


def test_zero_object_composes_to_zero(pools):
    pt, line, two, gm = pools[QQ]
    obj = random_object(line, two, rng=random.Random(5), bounds=BOUNDS)
    z = zero_object(two, gm)
    assert compose_objects(obj, z) == zero_object(line, gm)


def test_strict_associativity_graphs_and_random(pools):
    for field, (pt, line, two, gm) in pools.items():
        f = make_morphism(line, line, ["x^2"])
        g = make_morphism(line, line, ["x + 1"])
        h = make_morphism(line, line, ["x^3"])
        assert strict_associativity_check(graph_object(f), graph_object(g),
                                          graph_object(h))
        rng = random.Random(derive_seed("assoc", field.name))
        pool = (pt, line, two, gm)
        for _ in range(30):
            w, v, u, x = (rng.choice(pool) for _ in range(4))
            phi1 = random_object(w, v, rng=rng, bounds=BOUNDS)
            phi2 = random_object(v, u, rng=rng, bounds=BOUNDS)
            phi3 = random_object(u, x, rng=rng, bounds=BOUNDS)
            assert strict_associativity_check(phi1, phi2, phi3)


def test_zero_in_chain_is_absorbing(pools):
    pt, line, two, gm = pools[QQ]
    rng = random.Random(6)
    phi1 = zero_object(pt, line)
    phi2 = random_object(line, two, rng=rng, bounds=BOUNDS)
    phi3 = random_object(two, gm, rng=rng, bounds=BOUNDS)
    assert strict_associativity_check(phi1, phi2, phi3)
    assert compose_objects(compose_objects(phi1, phi2), phi3).n == 0


def test_morphism_pairing_matches_kronecker_oracle(pools):
    for field in (QQ, PrimeField(5)):
        pt = pools[field][0]
        rng = random.Random(derive_seed("kron", field.name))
        for _ in range(25):
            inner = random_object(pt, pt, rng=rng,
                                  bounds=GenBounds(max_n=3, zero_weight=0.0))
            outer = random_object(pt, pt, rng=rng,
                                  bounds=GenBounds(max_n=3, zero_weight=0.0))
            m1 = random_morphism_from(inner, rng, BOUNDS)
            m2 = random_morphism_from(outer, rng, BOUNDS)
            got = compose_morphisms(m2, m1).mat
            expected = dense_kron(
                [[scalar_value(e) for e in row] for row in m2.mat.rows],
                [[scalar_value(e) for e in row] for row in m1.mat.rows],
                field.mul)
            assert [[scalar_value(e) for e in row] for row in got.rows] == expected


def test_morphism_pairing_units_and_zero(pools):
    pt, line, two, gm = pools[QQ]
    rng = random.Random(8)
    inner = random_object(line, two, rng=rng, bounds=BOUNDS)
    outer = random_object(two, gm, rng=rng, bounds=BOUNDS)
    composite = compose_objects(inner, outer)
    ident = compose_morphisms(identity_morphism(outer), identity_morphism(inner))
    assert ident.mat == composite.p
    z = compose_morphisms(identity_morphism(outer), zero_morphism(inner, inner))
    assert z.mat.is_zero()


def _swap_morphism(a, b):
    """The isomorphism a (+) b -> b (+) a that exchanges the summands."""
    basis = a.X.gb
    zero = QElem.zero(basis)
    rows = ([[zero] * a.n + list(row) for row in b.p.rows]
            + [list(row) + [zero] * b.n for row in a.p.rows])
    return make_corr_morphism(direct_sum(a, b), direct_sum(b, a),
                              Matrix(basis, rows, a.n + b.n, a.n + b.n))


def test_morphism_endpoints_are_the_composed_objects(pools):
    """Both endpoints over every pool pair (U, X): once with an inner
    morphism between two different objects, once with an identity, whose
    source and target are one object."""
    for field, pool in pools.items():
        rng = random.Random(derive_seed("endpoints", field.name))
        for k, (u, x) in enumerate(itertools.product(pool, repeat=2)):
            v = pool[k % len(pool)]
            m1 = _swap_morphism(*(random_object(v, u, rng=rng, bounds=BOUNDS)
                                  for _ in range(2)))
            m2 = _swap_morphism(*(random_object(u, x, rng=rng, bounds=BOUNDS)
                                  for _ in range(2)))
            for first in (m1, identity_morphism(m1.src)):
                got = compose_morphisms(m2, first)
                assert got.src == compose_objects(first.src, m2.src)
                assert got.dst == compose_objects(first.dst, m2.dst)


def test_interchange_randomized(pools):
    for field in (QQ, PrimeField(5)):
        pt, line, two, gm = pools[field]
        rng = random.Random(derive_seed("interchange", field.name))
        for _ in range(20):
            inner = random_object(line, two, rng=rng, bounds=BOUNDS)
            outer = random_object(two, gm, rng=rng, bounds=BOUNDS)
            a1 = random_morphism_from(inner, rng, BOUNDS)
            b1 = random_morphism_from(a1.dst, rng, BOUNDS)
            a2 = random_morphism_from(outer, rng, BOUNDS)
            b2 = random_morphism_from(a2.dst, rng, BOUNDS)
            lhs = compose_morphisms(compose_vertical(b2, a2),
                                    compose_vertical(b1, a1))
            rhs = compose_vertical(compose_morphisms(b2, b1),
                                   compose_morphisms(a2, a1))
            assert lhs.mat == rhs.mat


def test_sum_split_certificates(pools):
    for field in (QQ, PrimeField(5)):
        pt, line, two, gm = pools[field]
        rng = random.Random(derive_seed("sumcert", field.name))
        for _ in range(10):
            a = random_object(line, two, rng=rng, bounds=BOUNDS)
            b2 = random_object(line, two, rng=rng, bounds=BOUNDS)
            c = random_object(two, gm, rng=rng, bounds=BOUNDS)
            cert = sum_split_certificate_inner(a, b2, c)
            assert verify_iso(cert)
            cert2 = sum_split_certificate_outer(a, c,
                                                random_object(two, gm, rng=rng,
                                                              bounds=BOUNDS))
            assert verify_iso(cert2)


def test_wrong_flatten_caught_by_outer_sum_certificate(pools, monkeypatch):
    pt, line, two, gm = pools[QQ]
    rng = random.Random(derive_seed("outer-sumcert", QQ.name))
    triples = [[random_object(x, y, rng=rng, bounds=BOUNDS)
                for x, y in ((line, two), (two, gm), (two, gm))]
               for _ in range(10)]
    monkeypatch.setattr(pairing, "flatten_blocks", shuffled_flatten)
    with pytest.raises(InternalLawViolation, match="split on the nose"):
        for first, second_a, second_b in triples:
            sum_split_certificate_outer(first, second_a, second_b)


def _composable_pair(pools):
    """Morphisms m1 of (pt, pt) objects and m2 of (pt, A1) objects, n = 2
    each; m1 is not scalar and m2's generator image has distinct entries."""
    pt, line, two, gm = pools[QQ]
    b = pt.gb
    inner = make_correspondence(pt, pt, 2, Matrix.identity(b, 2), [])
    outer = make_correspondence(pt, line, 2, Matrix.identity(b, 2),
                                [_scalar_matrix(b, [[1, 0], [0, 2]])])
    m1 = make_corr_morphism(inner, inner, _scalar_matrix(b, [[1, 1], [0, 1]]))
    return inner, outer, m1, identity_morphism(outer)


def _forbid_make(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a composite was re-validated in release mode")
    for module in (corrcat, pairing):
        for name in ("make_correspondence", "make_corr_morphism"):
            monkeypatch.setattr(module, name, forbidden, raising=False)


def test_composites_are_trusted_in_release_mode(pools, monkeypatch):
    inner, outer, m1, m2 = _composable_pair(pools)
    monkeypatch.setattr(pairing, "flatten_blocks", shuffled_flatten)
    _forbid_make(monkeypatch)
    assert compose_objects(inner, outer).n == 4
    composite = compose_morphisms(m2, m1)
    # the wrong flattening no longer matches the block-diagonal inner copies
    with pytest.raises(InvalidMorphism, match="intertwining"):
        make_corr_morphism(composite.src, composite.dst, composite.mat)


def test_broken_composites_are_internal_violations_in_debug_mode(pools, monkeypatch):
    inner, outer, m1, m2 = _composable_pair(pools)
    monkeypatch.setattr(pairing, "flatten_blocks", shuffled_flatten)
    with debug_validation():
        with pytest.raises(InternalLawViolation, match="derived CorrMorphism"):
            compose_morphisms(m2, m1)
    # the shuffled flattening conjugates every block matrix by one
    # permutation, so composite objects stay valid; doubling them does not
    monkeypatch.setattr(pairing, "flatten_blocks", doubled_flatten)
    with debug_validation():
        with pytest.raises(InternalLawViolation, match="derived CorrObject"):
            compose_objects(inner, outer)


def _chain_link(gm, k):
    """An n=3, rank-2 object over (Gm1, Gm1) and a morphism out of it.

    Slot j of the diagonal model is the point t1 -> c_j*t1, s1 -> s1/c_j,
    conjugated by an elementary matrix with a t1 entry; the morphism scales
    the slots into a conjugate by an elementary matrix with an s1 entry.
    ``k`` picks the scalars and positions, so the links of a chain differ.
    """
    basis, field = gm.gb, gm.field
    zero, one = QElem.zero(basis), QElem.one(basis)
    t, s = (gm.var(v) for v in gm.vars)
    cs = [field.from_int(k + 1), field.from_int(k + 2)]

    def elementary(i, j, lam):
        rows, inv = ([[one if a == b else zero for b in range(3)] for a in range(3)]
                     for _ in range(2))
        rows[i][j], inv[i][j] = lam, -lam
        return Matrix(basis, rows), Matrix(basis, inv)

    u, u_inv = elementary(k % 3, (k + 2) % 3, t.scale(cs[1]))
    v, v_inv = elementary((k + 1) % 3, k % 3, s)

    def frame(entries):
        return u * Matrix.diagonal(basis, entries + [zero]) * u_inv

    p = frame([one, one])
    gens = [frame([t.scale(c) for c in cs]),
            frame([s.scale(field.inv(c)) for c in cs])]
    obj = make_correspondence(gm, gm, 3, p, gens)
    dst = make_correspondence(gm, gm, 3, v * p * v_inv, [v * a * v_inv for a in gens])
    mor = make_corr_morphism(obj, dst, v * frame([one.scale(c) for c in reversed(cs)]))
    return obj, mor


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_deep_chain_over_gm1(field):
    """Three n=3 links compose to n=27: the shape of the benchmark chain."""
    gm = gm_power(1, field)
    (o1, m1), (o2, m2), (o3, m3) = (_chain_link(gm, k) for k in range(3))
    left = compose_objects(compose_objects(o1, o2), o3)
    assert left.n == 27
    assert left == compose_objects(o1, compose_objects(o2, o3))
    mor = compose_morphisms(m3, compose_morphisms(m2, m1))
    assert mor.src == left
    with debug_validation():
        assert compose_objects(compose_objects(o1, o2), o3) == left
        assert compose_morphisms(m3, compose_morphisms(m2, m1)) == mor
