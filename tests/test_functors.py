import random
from fractions import Fraction

import pytest

from mutants import doubled_flatten, doubled_pull_matrices
from oracles import entrywise_pull, term_by_term_corner_eval
from kcorr.config import debug_validation
from kcorr.corrcat import (CorrObject, graph_object, make_correspondence,
                           make_corr_morphism, zero_object)
from kcorr.errors import (InternalLawViolation, InvalidArity, InvalidCertificate,
                          ShapeError)
from kcorr.exactalg import Matrix, PrimeField, QElem, QQ
from kcorr.functors import (aut_morphism_from_torus, box_mor, box_product,
                            make_aut_morphism, make_aut_object, pullback_aut,
                            pullback_mor, pullback_obj, pushforward_aut,
                            pushforward_mor, pushforward_obj,
                            to_automorphism_object, to_torus_object,
                            torus_morphism_from_aut)
from kcorr import functors, pairing
from kcorr.laws import law_pool
from kcorr.pairing import compose_morphisms, compose_objects
from kcorr.randomgen import (GenBounds, derive_seed, random_aut_object,
                             random_morphism_from, random_object, sample_map)
from kcorr.varieties import (VarMorphism, compose_maps, gm_power, identity_map,
                             make_morphism, point, product, product_morphism,
                             split_projections, split_torus)

BOUNDS = GenBounds(max_n=2, max_deg=1, max_elementary=1, zero_weight=0.0)


@pytest.fixture
def pool():
    return law_pool(QQ)


def test_pullback_identity_is_data_identity(pool):
    pt, line, two, gm = pool
    obj = random_object(line, two, seed=1, bounds=BOUNDS)
    assert pullback_obj(identity_map(line), obj) == obj


def test_pullback_evaluation_at_zero(pool):
    pt, line, *_ = pool
    phi = graph_object(make_morphism(line, line, ["x^2"]))
    ev0 = make_morphism(pt, line, ["0"])
    with debug_validation():
        pulled = pullback_obj(ev0, phi)
    assert pulled.gen_images[0].is_zero()
    assert pulled.X == pt


def test_pullback_chain_strict(pool):
    pt, line, two, gm = pool
    rng = random.Random(2)
    for _ in range(25):
        obj = random_object(line, two, rng=rng, bounds=BOUNDS)
        f = sample_map(line, line, rng)
        f2 = sample_map(pt, line, rng)
        lhs = pullback_obj(f2, pullback_obj(f, obj))
        rhs = pullback_obj(compose_maps(f, f2), obj)
        assert lhs == rhs


def test_pushforward_examples(pool):
    pt, line, two, gm = pool
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    obj = make_correspondence(pt, two, 2, Matrix.identity(b, 2),
                              [Matrix.diagonal(b, [one, zero])])
    with debug_validation():
        pushed = pushforward_obj(make_morphism(two, pt, []), obj)
    assert pushed.Y == pt and pushed.p == obj.p
    assert pushforward_obj(identity_map(two), obj) == obj


def test_pull_push_commute_randomized(pool):
    pt, line, two, gm = pool
    rng = random.Random(3)
    for _ in range(40):
        obj = random_object(line, two, rng=rng, bounds=BOUNDS)
        f = sample_map(pt, line, rng)
        g = sample_map(two, two, rng)
        assert pushforward_obj(g, pullback_obj(f, obj)) == \
            pullback_obj(f, pushforward_obj(g, obj))
        mor = random_morphism_from(obj, rng, BOUNDS)
        assert pushforward_mor(g, pullback_mor(f, mor)).mat == \
            pullback_mor(f, pushforward_mor(g, mor)).mat


@pytest.mark.parametrize("field", [PrimeField(5), QQ], ids=["F5", "Q"])
def test_graph_composition_matches_entrywise_oracles(field):
    """Pullback is entrywise substitution and pushforward is evaluation of
    the target coordinates, on every pair of base and target in the pool.
    The box product, on its idempotent, X'-actions and morphisms, and the
    pullback of automorphism witnesses are entrywise substitution too."""
    varieties = law_pool(field)
    rng = random.Random(derive_seed("entrywise-oracle", field.name))
    for x in varieties:
        for y in varieties:
            objs = [random_object(x, y, rng=rng, bounds=BOUNDS) for _ in range(3)]
            for obj in (*objs, zero_object(x, y)):
                f = sample_map(rng.choice(varieties), x, rng, max_deg=1)
                g = sample_map(y, rng.choice(varieties), rng, max_deg=1)
                mor = random_morphism_from(obj, rng, BOUNDS)
                assert pullback_obj(f, obj) == CorrObject(
                    f.source, obj.Y, obj.n, entrywise_pull(f, obj.p),
                    tuple(entrywise_pull(f, a) for a in obj.gen_images))
                assert pushforward_obj(g, obj) == CorrObject(
                    obj.X, g.target, obj.n, obj.p,
                    tuple(term_by_term_corner_eval(obj.p, obj.gen_images, img.rep)
                          for img in g.images))
                assert pullback_mor(f, mor).mat == entrywise_pull(f, mor.mat)
                assert pushforward_mor(g, mor).mat == mor.mat
                h = sample_map(rng.choice(varieties), rng.choice(varieties), rng,
                               max_deg=1)
                q_x, _ = split_projections(product(x, h.source), x, h.source)
                boxed = box_product(h, obj)
                assert boxed.p == entrywise_pull(q_x, obj.p)
                assert boxed.gen_images[:len(obj.gen_images)] == \
                    tuple(entrywise_pull(q_x, a) for a in obj.gen_images)
                assert box_mor(h, mor).mat == entrywise_pull(q_x, mor.mat)
            aut = random_aut_object(x, y, rng.choice((1, 2)), rng=rng, bounds=BOUNDS)
            f = sample_map(rng.choice(varieties), x, rng, max_deg=1)
            assert [(fwd.mat, bwd.mat) for fwd, bwd in pullback_aut(f, aut).thetas] == \
                [(entrywise_pull(f, fwd.mat), entrywise_pull(f, bwd.mat))
                 for fwd, bwd in aut.thetas]


@pytest.mark.parametrize("functor, message", [
    (pullback_obj, "A1 is not the base of the object"),
    (pullback_mor, "A1 is not the base of the object"),
    (pushforward_obj, "A1 is not the target of the object"),
    (pushforward_mor, "A1 is not the target of the object"),
], ids=["pullback_obj", "pullback_mor", "pushforward_obj", "pushforward_mor"])
def test_functor_shape_checks_precede_the_pairing(pool, functor, message):
    pt, line, two, gm = pool
    obj = random_object(two, two, seed=12, bounds=BOUNDS)
    mor = random_morphism_from(obj, random.Random(12), BOUNDS)
    arg = obj if functor in (pullback_obj, pushforward_obj) else mor
    with pytest.raises(ShapeError) as info:
        functor(make_morphism(line, line, ["x"]), arg)
    assert type(info.value) is ShapeError and info.value.detail == message


def test_box_with_point_identity_is_prefix_rename(pool):
    pt, line, two, gm = pool
    obj = random_object(line, two, seed=4, bounds=BOUNDS)
    boxed = box_product(identity_map(pt), obj)
    assert boxed.n == obj.n
    assert boxed.X == product(line, pt)
    assert boxed.Y == product(two, pt)
    # entries agree after the prefix renaming
    assert [[str(e) for e in row] for row in boxed.p.rows] == \
        [[str(e).replace("x", "A1.x") for e in row] for row in obj.p.rows]


def test_box_graph_compatibility(pool):
    pt, line, two, gm = pool
    h = make_morphism(line, line, ["x^2"])
    f = identity_map(line)
    assert box_product(f, graph_object(h)) == \
        graph_object(product_morphism(h, f))


def test_box_compose_law_randomized(pool):
    pt, line, two, gm = pool
    rng = random.Random(5)
    for _ in range(15):
        f1 = sample_map(two, line, rng)
        f2 = sample_map(line, line, rng)
        phi1 = random_object(pt, line, rng=rng, bounds=BOUNDS)
        phi2 = random_object(line, two, rng=rng, bounds=BOUNDS)
        lhs = box_product(compose_maps(f2, f1), compose_objects(phi1, phi2))
        rhs = compose_objects(box_product(f1, phi1), box_product(f2, phi2))
        assert lhs == rhs
        m1 = random_morphism_from(phi1, rng, BOUNDS)
        m2 = random_morphism_from(phi2, rng, BOUNDS)
        lhs_m = box_mor(compose_maps(f2, f1), compose_morphisms(m2, m1))
        rhs_m = compose_morphisms(box_mor(f2, m2), box_mor(f1, m1))
        assert lhs_m.mat == rhs_m.mat and lhs_m.src == rhs_m.src


def test_box_unit_square(pool):
    pt, line, two, gm = pool
    rng = random.Random(6)
    for _ in range(15):
        f = sample_map(pt, line, rng)
        obj = random_object(line, two, rng=rng, bounds=BOUNDS)
        left = pullback_obj(product_morphism(identity_map(line), f),
                            box_product(identity_map(line), obj))
        right = pushforward_obj(product_morphism(identity_map(two), f),
                                box_product(identity_map(pt), obj))
        assert left == right


def test_torus_split_worked_example(pool):
    pt, *_ = pool
    gm = gm_power(1, QQ)
    target = product(pt, gm)
    b = pt.gb
    two_s = QElem.const(b, Fraction(2))
    half = QElem.const(b, Fraction(1, 2))
    obj = make_correspondence(pt, target, 1, Matrix.identity(b, 1),
                              [Matrix(b, [[two_s]]), Matrix(b, [[half]])])
    aut = to_automorphism_object(obj)
    assert aut.base.n == 1 and aut.base.Y == pt
    assert aut.thetas[0][0].mat[0, 0] == two_s
    assert to_torus_object(aut) == obj


def test_torus_round_trips_randomized(pool):
    pt, line, two, gm = pool
    rng = random.Random(7)
    for _ in range(20):
        arity = rng.choice((1, 2))
        y = rng.choice((pt, line, two))
        x = rng.choice((pt, line, two))
        aut = random_aut_object(x, y, arity, rng=rng, bounds=BOUNDS)
        assert to_automorphism_object(to_torus_object(aut)) == aut
        torus_obj = to_torus_object(aut)
        assert to_torus_object(to_automorphism_object(torus_obj)) == torus_obj
        mor = random_morphism_from(torus_obj, rng, BOUNDS)
        assert torus_morphism_from_aut(aut_morphism_from_torus(mor)).mat == mor.mat


def test_targets_defer_their_basis(pool, monkeypatch):
    import kcorr.varieties
    pt, line, two, gm = pool
    aut = random_aut_object(line, two, 2, rng=random.Random(3), bounds=BOUNDS)
    calls = []
    true_buchberger = kcorr.varieties.buchberger
    monkeypatch.setattr(kcorr.varieties, "buchberger",
                        lambda *args: calls.append(args) or true_buchberger(*args))
    prod, torus = product(line, two), gm_power(2, QQ)
    targets = [to_torus_object(aut).Y for _ in range(10)]
    assert calls == []  # shapes and targets only: no basis read yet
    assert targets[0] == product(two, torus) and prod.vars == ("A1.x", "TwoPts.y")
    assert len(torus.gb.gens) == 2 and len(calls) == 1
    assert targets[0].gb is targets[0].gb and len(calls) == 2


def test_theta_inverse_of_identity_is_projector(pool):
    pt, line, two, gm = pool
    base = random_object(line, two, seed=8, bounds=BOUNDS)
    ident = make_corr_morphism(base, base, base.p)
    aut = make_aut_object(base, [(ident, ident)])
    torus_obj = to_torus_object(aut)
    assert torus_obj.gen_images[-1] == base.p
    assert torus_obj.gen_images[-2] == base.p


def test_torus_shape_errors(pool):
    pt, line, two, gm = pool
    obj = random_object(line, two, seed=9, bounds=BOUNDS)
    with pytest.raises(ShapeError):
        to_automorphism_object(obj)


def test_aut_validation(pool):
    pt, line, two, gm = pool
    base = random_object(line, two, seed=10, bounds=BOUNDS)
    from kcorr.corrcat import zero_morphism
    z = zero_morphism(base, base)
    if not base.p.is_zero():
        with pytest.raises(InvalidCertificate):
            make_aut_object(base, [(z, z)])


def test_torus_naturality_conditions(pool):
    pt, line, two, gm = pool
    rng = random.Random(11)
    for _ in range(15):
        arity = rng.choice((1, 2))
        aut = random_aut_object(line, two, arity, rng=rng, bounds=BOUNDS)
        torus_obj = to_torus_object(aut)
        f = sample_map(pt, line, rng)
        assert pullback_aut(f, to_automorphism_object(torus_obj)) == \
            to_automorphism_object(pullback_obj(f, torus_obj))
        g = sample_map(two, two, rng)
        torus = gm_power(arity, QQ)
        assert pushforward_aut(g, to_automorphism_object(torus_obj)) == \
            to_automorphism_object(pushforward_obj(
                product_morphism(g, identity_map(torus)), torus_obj))


def test_corrupted_pullback_is_an_internal_violation(pool, monkeypatch):
    pt, line, *_ = pool
    phi = graph_object(make_morphism(line, line, ["x^2"]))
    ev1 = make_morphism(pt, line, ["1"])
    monkeypatch.setattr(pairing, "flatten_blocks", doubled_flatten)
    # release mode trusts the value
    assert pullback_obj(ev1, phi).p != entrywise_pull(ev1, phi.p)
    with debug_validation():
        with pytest.raises(InternalLawViolation, match="derived CorrObject"):
            pullback_obj(ev1, phi)


def test_corrupted_torus_object_is_an_internal_violation(pool, monkeypatch):
    pt, line, two, gm = pool
    aut = random_aut_object(line, two, 1, seed=1, bounds=BOUNDS)
    assert not aut.base.p.is_zero()
    monkeypatch.setattr(functors, "pull_matrices", doubled_pull_matrices)
    corrupted = pullback_aut(make_morphism(pt, line, ["2"]), aut)
    with debug_validation():
        with pytest.raises(InternalLawViolation, match="derived CorrObject"):
            to_torus_object(corrupted)


def _split_by_pushforward(obj):
    """The torus split as first defined: push the object forward along the
    projections of its target onto the base and onto the torus."""
    y_base, torus, arity = split_torus(obj.Y)
    if obj.Y.factors is None:
        projection, to_torus = VarMorphism(obj.Y, y_base, ()), identity_map(obj.Y)
    else:
        projection, to_torus = split_projections(obj.Y, y_base, torus)
    base = pushforward_obj(projection, obj)
    mats = pushforward_obj(to_torus, obj).gen_images
    thetas = [(make_corr_morphism(base, base, mats[2 * i]),
               make_corr_morphism(base, base, mats[2 * i + 1]))
              for i in range(arity)]
    return make_aut_object(base, thetas)


@pytest.mark.parametrize("debug", [False, True], ids=["release", "debug"])
@pytest.mark.parametrize("field", [PrimeField(5), QQ], ids=["F5", "Q"])
def test_torus_split_equals_pushforward_definition(field, debug):
    pt, line, two, gm = law_pool(field)
    rng = random.Random(derive_seed("split-oracle", field.name))
    objs = [random_object(line, gm, rng=rng, bounds=BOUNDS)
            for _ in range(4)]  # a bare Gm1 target
    for arity in (1, 2):
        for y in (pt, two, product(line, two)):  # none, one, two base factors
            objs.append(to_torus_object(
                random_aut_object(line, y, arity, rng=rng, bounds=BOUNDS)))
    assert len(objs[-1].Y.factors) == 3
    with debug_validation(debug):
        for obj in objs:
            assert to_automorphism_object(obj) == _split_by_pushforward(obj)


def _aut_world():
    pt = point(QQ)
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    mat = lambda rows: Matrix(b, [[QElem.const(b, Fraction(v)) for v in r] for r in rows])
    base = make_correspondence(pt, pt, 2, Matrix.identity(b, 2), [])
    other = make_correspondence(pt, pt, 2, Matrix.diagonal(b, [one, zero]), [])
    upper = (make_corr_morphism(base, base, mat([[1, 1], [0, 1]])),
             make_corr_morphism(base, base, mat([[1, -1], [0, 1]])))
    lower = (make_corr_morphism(base, base, mat([[1, 0], [1, 1]])),
             make_corr_morphism(base, base, mat([[1, 0], [-1, 1]])))
    ident = make_corr_morphism(base, base, base.p)
    return dict(base=base, other=other, upper=upper, lower=lower, ident=ident,
                one_aut=make_aut_object(base, [upper]),
                two_aut=make_aut_object(base, [upper, upper]),
                other_ident=make_corr_morphism(other, other, other.p))


# (case, call, error type, message): one case per input check of the module
AUT_CHECKS = [
    ("aut-endpoints", lambda w: make_aut_object(
        w["base"], [(w["other_ident"], w["other_ident"])]),
     InvalidCertificate, "automorphism endpoints must be the base object"),
    ("aut-commutation", lambda w: make_aut_object(
        w["base"], [w["upper"], w["lower"]]),
     InvalidCertificate, "automorphisms 1 and 2 do not commute"),
    ("aut-morphism-endpoints", lambda w: make_aut_morphism(
        w["one_aut"], w["one_aut"], w["other_ident"]),
     ShapeError, "underlying morphism endpoints do not match the bases"),
    ("aut-morphism-arity", lambda w: make_aut_morphism(
        w["one_aut"], w["two_aut"], w["ident"]),
     ShapeError, "automorphism arities differ"),
    ("torus-without-automorphisms", lambda w: to_torus_object(
        make_aut_object(w["base"], [])),
     InvalidArity, "need at least one automorphism to build a torus target"),
]


@pytest.mark.parametrize("make, error, message",
                         [case[1:] for case in AUT_CHECKS],
                         ids=[case[0] for case in AUT_CHECKS])
def test_input_checks(make, error, message):
    with pytest.raises(error) as info:
        make(_aut_world())
    assert type(info.value) is error and info.value.detail == message
