"""Acceptance suite: one test per release criterion, exact tolerances.

Every criterion prints a single PASS line (visible with ``pytest -s``); a
failing criterion fails its test.  All equalities are exact data equalities
of normal forms; no tolerance is ever relaxed.
"""

import json
import random
from pathlib import Path

from mutants import shuffled_flatten
from oracles import (canonical, dense_kron, dense_module_hom, field_ops,
                     naive_buchberger, poly_to_dict)
from kcorr import pairing
from kcorr.bimod import big_lift, big_pullback, big_pushforward, restrict_base
from kcorr.corrcat import (graph_object, identity_morphism, identity_object,
                           make_corr_morphism, sum_injections)
from kcorr.errors import InvalidMorphism
from kcorr.exactalg import (Ambient, Matrix, PrimeField, QElem, QQ, buchberger,
                            parse_poly, scalar_value)
from kcorr.functors import (box_mor, box_product, pullback_aut, pullback_obj,
                            pushforward_aut, pushforward_obj,
                            to_automorphism_object, to_torus_object,
                            aut_morphism_from_torus, torus_morphism_from_aut)
from kcorr.k0 import (K0Ledger, k0_compose, k0_register,
                      pt_conjugation_certificate, rank)
from kcorr.laws import LAW_BOUNDS as BOUNDS, law_pool, law_suite
from kcorr.pairing import (compose_morphisms, compose_objects,
                           strict_associativity_check)
from kcorr.randomgen import (GenBounds, derive_seed, random_aut_object,
                             random_morphism_from, random_object, sample_map)
from kcorr.varieties import (compose_maps, gm_power, identity_map, point,
                             product_morphism)

FIELDS = (PrimeField(5), QQ)


def _report(criterion: int, text: str):
    print(f"[criterion {criterion:2d}] PASS - {text}")


def test_criterion_01_law_suite_green():
    report = law_suite(seed=42, cases=200)
    assert report.ok, report.to_text()
    assert len(report.results) == 28  # 14 families x 2 fields
    assert report.wall_time < 60.0, f"law suite took {report.wall_time:.1f}s"
    _report(1, f"laws --cases 200 --seed 42: all 14 families, F5 and Q, "
               f"0 failures in {report.wall_time:.1f}s")


def test_criterion_02_strict_associativity():
    checked = 0
    for field in FIELDS:
        pool = law_pool(field)
        rng = random.Random(derive_seed("acc-assoc", field.name))
        while checked < (100 if field is FIELDS[0] else 200):
            w, v, u, x = (rng.choice(pool) for _ in range(4))
            phi1 = random_object(w, v, rng=rng, bounds=BOUNDS)
            phi2 = random_object(v, u, rng=rng, bounds=BOUNDS)
            phi3 = random_object(u, x, rng=rng, bounds=BOUNDS)
            assert strict_associativity_check(phi1, phi2, phi3)
            checked += 1
    assert checked == 200
    _report(2, "200 random composable triples associate identically (exact)")


def test_criterion_03_unit_laws():
    checked = 0
    for field in FIELDS:
        pool = law_pool(field)
        rng = random.Random(derive_seed("acc-units", field.name))
        for _ in range(100):
            u, x = rng.choice(pool), rng.choice(pool)
            obj = random_object(u, x, rng=rng, bounds=BOUNDS)
            mor = random_morphism_from(obj, rng, BOUNDS)
            id_u, id_x = identity_object(u), identity_object(x)
            assert compose_objects(id_u, obj) == obj
            assert compose_objects(obj, id_x) == obj
            assert compose_morphisms(mor, identity_morphism(id_u)).mat == mor.mat
            assert compose_morphisms(identity_morphism(id_x), mor).mat == mor.mat
            checked += 1
    assert checked == 200
    _report(3, "200 cases: identity graphs are two-sided units on objects "
               "and morphisms (exact)")


def test_criterion_04_graph_functoriality():
    checked = 0
    for field in FIELDS:
        pool = law_pool(field)
        rng = random.Random(derive_seed("acc-graph", field.name))
        for _ in range(50):
            a, b, c = (rng.choice(pool) for _ in range(3))
            f = sample_map(a, b, rng)
            g = sample_map(b, c, rng)
            assert compose_objects(graph_object(f), graph_object(g)) == \
                graph_object(compose_maps(g, f))
            checked += 1
    assert checked == 100
    _report(4, "100 morphism chains: graph of a composite equals the "
               "composite of graphs (exact)")


def test_criterion_05_box_product_laws():
    counts = {"compose": 0, "graph": 0, "diagram": 0, "square": 0}
    for field in FIELDS:
        pool = law_pool(field)
        rng = random.Random(derive_seed("acc-box", field.name))
        for _ in range(50):
            f1 = sample_map(rng.choice(pool), rng.choice(pool), rng)
            f2 = sample_map(f1.target, rng.choice(pool), rng)
            xa, xb, xc = (rng.choice(pool) for _ in range(3))
            phi1 = random_object(xa, xb, rng=rng, bounds=BOUNDS)
            phi2 = random_object(xb, xc, rng=rng, bounds=BOUNDS)
            assert box_product(compose_maps(f2, f1),
                               compose_objects(phi1, phi2)) == \
                compose_objects(box_product(f1, phi1), box_product(f2, phi2))
            counts["compose"] += 1
            h = sample_map(rng.choice(pool), rng.choice(pool), rng)
            assert box_product(f1, graph_object(h)) == \
                graph_object(product_morphism(h, f1))
            counts["graph"] += 1
            m1 = random_morphism_from(phi1, rng, BOUNDS)
            m2 = random_morphism_from(phi2, rng, BOUNDS)
            lhs = box_mor(compose_maps(f2, f1), compose_morphisms(m2, m1))
            rhs = compose_morphisms(box_mor(f2, m2), box_mor(f1, m1))
            assert lhs.mat == rhs.mat and lhs.src == rhs.src and lhs.dst == rhs.dst
            counts["diagram"] += 1
            obj = random_object(xa, xb, rng=rng, bounds=BOUNDS)
            left = pullback_obj(product_morphism(identity_map(xa), f1),
                                box_product(identity_map(f1.target), obj))
            right = pushforward_obj(product_morphism(identity_map(xb), f1),
                                    box_product(identity_map(f1.source), obj))
            assert left == right
            counts["square"] += 1
    assert all(v == 100 for v in counts.values())
    _report(5, "box-product laws: composition, graph compatibility, functor "
               "diagram, unit square; 100 cases each (exact)")


def test_criterion_06_torus_isomorphism():
    checked = 0
    for field in FIELDS:
        pool = law_pool(field)
        rng = random.Random(derive_seed("acc-torus", field.name))
        for _ in range(50):
            arity = rng.choice((1, 2))
            x = rng.choice(pool)
            y = rng.choice(pool[:3])
            aut = random_aut_object(x, y, arity, rng=rng, bounds=BOUNDS)
            assert to_automorphism_object(to_torus_object(aut)) == aut
            torus_obj = to_torus_object(aut)
            assert to_torus_object(to_automorphism_object(torus_obj)) == torus_obj
            mor = random_morphism_from(torus_obj, rng, BOUNDS)
            assert torus_morphism_from_aut(aut_morphism_from_torus(mor)).mat \
                == mor.mat
            f = sample_map(rng.choice(pool), x, rng)
            assert pullback_aut(f, to_automorphism_object(torus_obj)) == \
                to_automorphism_object(pullback_obj(f, torus_obj))
            g = sample_map(y, rng.choice(pool[:3]), rng)
            torus = gm_power(arity, field)
            assert pushforward_aut(g, to_automorphism_object(torus_obj)) == \
                to_automorphism_object(pushforward_obj(
                    product_morphism(g, identity_map(torus)), torus_obj))
            checked += 1
    assert checked == 100
    _report(6, "100 cases, torus rank in {1,2}: both round trips exact plus "
               "pullback/pushforward naturality")


def _with_corruption(mat, rng):
    """``mat``, then a copy with one random entry raised by 1 unless it is empty."""
    if not (mat.nrows and mat.ncols):
        return [mat]
    rows = [list(r) for r in mat.rows]
    rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += \
        QElem.one(mat.basis)
    return [mat, Matrix(mat.basis, rows)]


def _corr_hom_valid(src, dst, mat):
    try:
        make_corr_morphism(src, dst, mat)
    except InvalidMorphism:
        return False
    return True


def test_criterion_07_affine_comparison():
    agreements = biproduct = distinct = 0
    for field in FIELDS:
        pool = law_pool(field)
        rng = random.Random(derive_seed("acc-compare", field.name))
        # the biproduct maps draw their corruptions apart from the main stream
        biproduct_rng = random.Random(derive_seed("acc-compare-biproduct", field.name))
        while agreements < (150 if field is FIELDS[0] else 300):
            x, y = rng.choice(pool), rng.choice(pool)
            src = random_object(x, y, rng=rng, bounds=BOUNDS)
            mor = random_morphism_from(src, rng, BOUNDS)
            for mat in _with_corruption(mor.mat, rng):
                assert _corr_hom_valid(mor.src, mor.dst, mat) == \
                    dense_module_hom(mor.src, mor.dst, mat)
                agreements += 1
            # most draws have equal endpoints; the biproduct maps mostly do not
            for m in sum_injections(mor.src, mor.dst)[1:]:
                for mat in _with_corruption(m.mat, biproduct_rng):
                    assert _corr_hom_valid(m.src, m.dst, mat) == \
                        dense_module_hom(m.src, m.dst, mat)
                    biproduct += 1
                    distinct += m.src != m.dst
    assert agreements >= 300
    _report(7, f"{agreements} candidate matrices (valid and corrupted) and "
               f"{biproduct} biproduct maps and corruptions ({distinct} between "
               "distinct objects): correspondence-hom and the dense module-map "
               "oracle agree exactly")


def test_criterion_08_strict_base_change():
    checked = 0
    for field in FIELDS:
        pool = law_pool(field)
        rng = random.Random(derive_seed("acc-bigbim", field.name))
        for _ in range(50):
            x, y = rng.choice(pool), rng.choice(pool)
            lifted = big_lift(random_object(x, y, rng=rng, bounds=BOUNDS))
            g = sample_map(rng.choice(pool), x, rng)
            g1 = sample_map(rng.choice(pool), g.source, rng)
            two_step = big_pullback(g1, big_pullback(g, lifted))
            one_step = big_pullback(compose_maps(g, g1), lifted)
            assert two_step == one_step
            assert restrict_base(two_step) == restrict_base(one_step)
            h = sample_map(y, rng.choice(pool), rng)
            h1 = sample_map(h.target, rng.choice(pool), rng)
            push_two = big_pushforward(h1, big_pushforward(h, lifted))
            push_one = big_pushforward(compose_maps(h1, h), lifted)
            assert push_two == push_one
            assert restrict_base(push_two) == restrict_base(push_one)
            checked += 1
    assert checked == 100
    _report(8, "100 base-change chains: pullback and pushforward compose "
               "on the nose, restrictions data-identical")


def test_criterion_09_k0_of_the_point():
    pt_bounds = GenBounds(max_n=3, max_deg=1, max_elementary=2, zero_weight=0.05)
    for field in FIELDS:
        pt = point(field)
        rng = random.Random(derive_seed("acc-k0", field.name))
        objs = [random_object(pt, pt, rng=rng, bounds=pt_bounds)
                for _ in range(50)]
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
        fibers: dict = {}
        for i in ids:
            fibers.setdefault(rank(ledger.object_of(i)), set()).add(ledger.find(i))
        assert len(ledger.classes()) == len(fibers)
        assert all(len(roots) == 1 for roots in fibers.values())
        # rank multiplicativity of class composition on 25 pairs per field
        for _ in range(25):
            a = random_object(pt, pt, rng=rng, bounds=pt_bounds)
            b = random_object(pt, pt, rng=rng, bounds=pt_bounds)
            la, lb, lt = K0Ledger(pt, pt), K0Ledger(pt, pt), K0Ledger(pt, pt)
            la.register(a)
            lb.register(b)
            cls = k0_compose(la, lb, [(1, a)], [(1, b)], lt)
            total = sum(c * rank(lt.object_of(i)) for i, c in cls.terms)
            assert total == rank(a) * rank(b)
    _report(9, "50 point idempotents per field partition exactly into rank "
               "fibers; class composition is rank-multiplicative on 50 pairs")


def test_criterion_10_pairing_matches_kronecker_oracle(monkeypatch):
    checked = 0
    for field in FIELDS:
        pt = point(field)
        rng = random.Random(derive_seed("acc-kron", field.name))
        kb = GenBounds(max_n=3, max_deg=0, max_elementary=2, zero_weight=0.05)
        for _ in range(50):
            inner = random_object(pt, pt, rng=rng, bounds=kb)
            outer = random_object(pt, pt, rng=rng, bounds=kb)
            m1 = random_morphism_from(inner, rng, kb)
            m2 = random_morphism_from(outer, rng, kb)
            got = compose_morphisms(m2, m1).mat
            expected = dense_kron(
                [[scalar_value(e) for e in row] for row in m2.mat.rows],
                [[scalar_value(e) for e in row] for row in m1.mat.rows],
                field.mul)
            assert [[scalar_value(e) for e in row] for row in got.rows] == expected
            checked += 1
    assert checked == 100

    # mutation: a shuffled flattening must be caught by the interchange law
    monkeypatch.setattr(pairing, "flatten_blocks", shuffled_flatten)
    report = law_suite(seed=42, cases=25, fields=(PrimeField(5),),
                       laws=("pairing-bifunctor",))
    monkeypatch.undo()
    interchange_failures = [f for f in report.failures if f.check == "interchange"]
    assert interchange_failures and interchange_failures[0].case_index < 25
    _report(10, "morphism pairing equals the dense Kronecker oracle on 100 "
                "point cases; mutated flattening caught by the interchange "
                f"law at case {interchange_failures[0].case_index}")


def test_criterion_11_groebner_kernel():
    golden = json.loads((Path(__file__).parent / "data" /
                         "golden_groebner.json").read_text())
    for case in golden:
        field = QQ if case["field"] == "Q" else PrimeField(5)
        amb = Ambient(tuple(case["vars"]), field, case["order"])
        gens = [parse_poly(g, amb) for g in case["gens"]]
        gb = buchberger(gens, amb)
        assert [str(g) for g in gb.gens] == case["reduced"]
        oracle = naive_buchberger([poly_to_dict(g) for g in gens],
                                  case["order"], field_ops(case["field"]))
        assert canonical(oracle, case["order"]) == canonical(
            [poly_to_dict(g) for g in gb.gens], case["order"])

    def rand_poly(amb, rng):
        from kcorr.exactalg import Poly
        terms = {}
        for _ in range(rng.randint(0, 4)):
            mono = tuple(rng.randint(0, 3) for _ in amb.vars)
            terms[mono] = rng.choice(amb.field.elements_sample())
        return Poly(amb, terms)

    for field in FIELDS:
        amb = Ambient(("x", "y"), field, "degrevlex")
        gens = [parse_poly("x^2 - y", amb), parse_poly("y^3 - x*y", amb)]
        gb = buchberger(gens, amb)
        rng = random.Random(derive_seed("acc-groebner", field.name))
        nf = gb.normal_form
        for _ in range(500):
            f = rand_poly(amb, rng)
            g = rand_poly(amb, rng)
            assert nf(nf(f)) == nf(f)
            assert nf(f - nf(f)).is_zero()
            assert nf(f * g) == nf(nf(f) * nf(g))
            assert nf(f + g) == nf(nf(f) + nf(g))
        for gen in gens:
            assert nf(gen).is_zero()
    _report(11, "normal-form idempotency, membership and ring compatibility "
                "on 500 random polynomials per field; 5 golden bases match "
                "the naive oracle")
