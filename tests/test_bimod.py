import random

import pytest

from mutants import doubled_flatten
from oracles import entrywise_pull
from kcorr import pairing
from kcorr.bimod import (big_lift, big_pullback, big_pushforward,
                         bimodule_hom_valid, restrict_base)
from kcorr.config import debug_validation
from kcorr.corrcat import eval_nonunital, make_corr_morphism, make_correspondence
from kcorr.errors import (AmbientMismatch, InternalLawViolation, InvalidMorphism,
                          ShapeError)
from kcorr.exactalg import Matrix, PrimeField, QElem, QQ
from kcorr.laws import Ctx, law_pool
from kcorr.randomgen import (GenBounds, derive_seed, random_morphism_from,
                             random_object, sample_map)
from kcorr.varieties import compose_maps, identity_map, make_morphism

BOUNDS = GenBounds(max_n=2, max_deg=1, max_elementary=1, zero_weight=0.0)


@pytest.fixture
def pool():
    return law_pool(QQ)


def _twopts_object(pt, two):
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    return make_correspondence(pt, two, 2, Matrix.identity(b, 2),
                               [Matrix.diagonal(b, [one, zero])])


def test_hom_validity_matches_corrcat(pool):
    pt, line, two, gm = pool
    obj = _twopts_object(pt, two)
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    assert bimodule_hom_valid(obj, obj, obj.p)
    e12 = Matrix(b, [[zero, one], [zero, zero]])
    assert not bimodule_hom_valid(obj, obj, e12)
    with pytest.raises(InvalidMorphism):
        make_corr_morphism(obj, obj, e12)


def test_corner_law_implies_x_intertwining(pool):
    # X acts on both sides by x * proj, so a valid morphism intertwines it
    pt, line, two, gm = pool
    rng = random.Random(derive_seed("x-intertwining"))
    x = line.var("x")
    for _ in range(20):
        mor = random_morphism_from(random_object(line, two, rng=rng, bounds=BOUNDS),
                                   rng, BOUNDS)
        assert mor.mat * mor.src.p.scale_elem(x) == mor.dst.p.scale_elem(x) * mor.mat


def test_presentation_shape_errors(pool):
    pt, line, two, gm = pool
    a = random_object(line, two, seed=5, bounds=BOUNDS)
    b2 = random_object(line, gm, seed=6, bounds=BOUNDS)
    with pytest.raises(AmbientMismatch,
                       match=r"^morphism endpoints over different \(X, Y\)$"):
        bimodule_hom_valid(a, b2, a.p)
    with pytest.raises(ShapeError, match=f"^matrix must be {a.n}x{a.n}$"):
        bimodule_hom_valid(a, a, Matrix.identity(line.gb, a.n + 1))
    with pytest.raises(AmbientMismatch, match=r"^matrix not over k\[A1\]$"):
        bimodule_hom_valid(a, a, Matrix.identity(pt.gb, a.n))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_restricting_a_lift_pulls_back_along_the_identity(field):
    ctx = Ctx("restrict-lift", field, 0)
    rng = random.Random(derive_seed("restrict-lift", field.name))
    for x in ctx.pool:
        for y in ctx.pool:
            obj = ctx.rand_obj(rng, x, y)
            assert restrict_base(big_lift(obj)) == obj


def test_big_lift_and_identity_cache(pool):
    pt, line, two, gm = pool
    obj = random_object(line, two, seed=7, bounds=BOUNDS)
    lifted = big_lift(obj)
    assert restrict_base(lifted) == obj
    pulled_id = big_pullback(identity_map(line), lifted)
    assert pulled_id == lifted
    assert restrict_base(pulled_id) == obj


def test_base_changes_refuse_a_map_with_the_wrong_end(pool):
    pt, line, two, gm = pool
    lifted = big_lift(random_object(line, two, seed=7, bounds=BOUNDS))
    with pytest.raises(AmbientMismatch) as err:
        big_pullback(identity_map(pt), lifted)
    assert err.value.detail == "pullback morphism lands in pt, object based at A1"
    with pytest.raises(AmbientMismatch) as err:
        big_pushforward(identity_map(line), lifted)
    assert err.value.detail == "pushforward morphism starts at A1, object over TwoPts"


def test_strict_pullback_chain(pool):
    pt, line, two, gm = pool
    rng = random.Random(8)
    for _ in range(25):
        obj = random_object(line, two, rng=rng, bounds=BOUNDS)
        lifted = big_lift(obj)
        g = sample_map(line, line, rng)
        g1 = sample_map(pt, line, rng)
        two_step = big_pullback(g1, big_pullback(g, lifted))
        one_step = big_pullback(compose_maps(g, g1), lifted)
        assert two_step == one_step
        assert restrict_base(two_step) == restrict_base(one_step)


def test_strict_pushforward_chain_and_mixed(pool):
    pt, line, two, gm = pool
    rng = random.Random(9)
    for _ in range(25):
        obj = random_object(line, two, rng=rng, bounds=BOUNDS)
        lifted = big_lift(obj)
        h = sample_map(two, two, rng)
        h1 = sample_map(two, pt, rng)
        two_step = big_pushforward(h1, big_pushforward(h, lifted))
        one_step = big_pushforward(compose_maps(h1, h), lifted)
        assert two_step == one_step
        assert restrict_base(two_step) == restrict_base(one_step)
        g = sample_map(pt, line, rng)
        assert big_pushforward(h, big_pullback(g, lifted)) == \
            big_pullback(g, big_pushforward(h, lifted))


def test_restricted_value_is_entrywise_pullback(pool):
    pt, line, two, gm = pool
    obj = random_object(line, two, seed=10, bounds=BOUNDS)
    g = make_morphism(pt, line, ["2"])
    lifted = big_pullback(g, big_lift(obj))
    restricted = restrict_base(lifted)
    expected = make_correspondence(
        pt, two, obj.n,
        entrywise_pull(g, obj.p),
        tuple(entrywise_pull(g, a) for a in obj.gen_images))
    assert restricted == expected


def test_restricted_pushforward_is_entrywise_evaluation(pool):
    pt, line, two, gm = pool
    obj = random_object(line, two, seed=11, bounds=BOUNDS)
    h = make_morphism(two, line, ["y + 3"])
    restricted = restrict_base(big_pushforward(h, big_lift(obj)))
    expected = make_correspondence(line, line, obj.n, obj.p,
                                   tuple(eval_nonunital(obj, img) for img in h.images))
    assert restricted == expected


def test_chained_restriction_pulls_back_once(pool, monkeypatch):
    import kcorr.bimod
    pt, line, two, gm = pool
    obj = random_object(line, two, seed=13, bounds=BOUNDS)
    g = make_morphism(line, line, ["x^2 + 1"])
    g1 = make_morphism(pt, line, ["2"])
    lifted = big_lift(obj)
    calls = []
    true_pullback = kcorr.bimod.pullback_obj
    monkeypatch.setattr(kcorr.bimod, "pullback_obj",
                        lambda f, o: calls.append(f) or true_pullback(f, o))
    two_step = big_pullback(g1, big_pullback(g, lifted))
    assert calls == []  # base change alone restricts nothing
    restricted = restrict_base(two_step)
    assert calls == [compose_maps(g, g1)]
    assert restricted == true_pullback(compose_maps(g, g1), obj)


def test_corrupted_restriction_is_an_internal_violation(pool, monkeypatch):
    pt, line, two, gm = pool
    obj = random_object(line, two, seed=10, bounds=BOUNDS)
    assert not obj.p.is_zero()
    monkeypatch.setattr(pairing, "flatten_blocks", doubled_flatten)
    with debug_validation():
        with pytest.raises(InternalLawViolation, match="derived CorrObject"):
            restrict_base(big_pullback(make_morphism(pt, line, ["2"]), big_lift(obj)))
