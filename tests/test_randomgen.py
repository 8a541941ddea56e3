import random
from pathlib import Path

import pytest

from kcorr.corrcat import make_correspondence
from kcorr.errors import GenerationFailed
from kcorr.exactalg import Matrix, PrimeField, QQ
from kcorr.k0 import rank
from kcorr.laws import LAW_BOUNDS, law_pool
from kcorr.randomgen import (GenBounds, _breaks_at, _scalar_points, _test_points,
                             derive_seed, random_aut_object, random_conjugator,
                             random_morphism_from, random_object, random_poly,
                             sample_map, sample_point)
from kcorr.session import Session, format_decls, format_matrix
from kcorr.varieties import broken_relation, gm_power, make_variety, point

GENERATED_VALUES = Path(__file__).parent / "data" / "generated_values.txt"


def test_derive_seed_is_stable():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_seed("laws", "F5", 0) == derive_seed("laws", "F5", 0)


def test_same_seed_same_object():
    line = make_variety("A1", ["x"], [], QQ)
    two = make_variety("TwoPts", ["y"], ["y^2 - y"], QQ)
    a = random_object(line, two, seed=2024)
    b = random_object(line, two, seed=2024)
    assert a == b
    assert a != random_object(line, two, seed=2025) or a.n == 0


def test_generated_objects_always_validate():
    # make_correspondence re-checks every law; reconstruction must succeed
    for field in (QQ, PrimeField(5)):
        rng = random.Random(derive_seed("validate", field.name))
        pool = law_pool(field)
        for _ in range(60):
            x, y = rng.choice(pool), rng.choice(pool)
            obj = random_object(x, y, rng=rng)
            assert make_correspondence(obj.X, obj.Y, obj.n, obj.p,
                                       obj.gen_images) == obj


def test_rank_distribution_sanity():
    pt = point(QQ)
    ranks = {rank(random_object(pt, pt, seed=s)) for s in range(100)}
    assert len(ranks) >= 2


def test_sample_point_satisfies_relations():
    for field in (QQ, PrimeField(5)):
        line = make_variety("A1", ["x"], [], field)
        two = make_variety("TwoPts", ["y"], ["y^2 - y"], field)
        gm = gm_power(2, field)
        rng = random.Random(derive_seed("points", field.name))
        for _ in range(30):
            for target in (two, gm):
                pnt = sample_point(line, target, rng)
                reps = {v: c.rep for v, c in zip(target.vars, pnt)}
                from kcorr.exactalg import QElem
                for gen in target.ideal_gens:
                    assert QElem(line.gb,
                                 gen.substitute(reps, line.ambient)).is_zero()


def test_sample_point_failure_reported():
    # a variety with no points over the scalar pool and no free coordinates
    empty = make_variety("NoPoint", ["y"], ["y^2 + 1", "y - 1"], QQ)
    line = make_variety("A1", ["x"], [], QQ)
    with pytest.raises(GenerationFailed, match="within budget"):
        sample_point(line, empty, random.Random(0))


def test_random_morphisms_validate():
    line = make_variety("A1", ["x"], [], QQ)
    two = make_variety("TwoPts", ["y"], ["y^2 - y"], QQ)
    rng = random.Random(5)
    for _ in range(40):
        obj = random_object(line, two, rng=rng,
                            bounds=GenBounds(max_n=2, zero_weight=0.0))
        mor = random_morphism_from(obj, rng)
        assert mor.src == obj


def test_random_aut_objects_certified():
    line = make_variety("A1", ["x"], [], QQ)
    two = make_variety("TwoPts", ["y"], ["y^2 - y"], QQ)
    rng = random.Random(6)
    for _ in range(20):
        aut = random_aut_object(line, two, 2, rng=rng)
        for fwd, bwd in aut.thetas:
            assert fwd.mat * bwd.mat == aut.base.p


def test_sample_map_deterministic():
    line = make_variety("A1", ["x"], [], QQ)
    two = make_variety("TwoPts", ["y"], ["y^2 - y"], QQ)
    m1 = sample_map(line, two, random.Random(9))
    m2 = sample_map(line, two, random.Random(9))
    assert m1 == m2


def test_point_filter_never_rejects_an_accepted_candidate():
    # candidates are raw random polynomials, the representatives of sampled
    # points, and those plus multiples of the source's relations (equal in
    # k[x], different as polynomials)
    rejected = 0
    for field in (PrimeField(5), PrimeField(11), QQ):
        pool = (point(field), make_variety("A1", ["x"], [], field),
                gm_power(1, field), make_variety("TwoPts", ["y"], ["y^2 - y"], field))
        rng = random.Random(derive_seed("point filter", field.name))
        for x in pool:
            points = _test_points(x)
            assert points == _scalar_points(x)[:3]
            for y in pool:
                accepted = 0
                for i in range(30):
                    if i % 3 == 0:
                        polys = [random_poly(x, rng) for _ in y.vars]
                    else:
                        polys = [c.rep for c in sample_point(x, y, rng)]
                    if i % 3 == 2 and x.ideal_gens:
                        rel = x.ideal_gens[0]
                        polys = [f + rel * random_poly(x, rng) for f in polys]
                    exact = broken_relation(x, y, [x.qelem(f) for f in polys]) is None
                    filtered = any(_breaks_at(y, polys, c) for c in points)
                    assert not (exact and filtered), (x.name, y.name, polys)
                    accepted += exact
                    rejected += filtered
                assert accepted >= 20
    assert rejected


def generated_values() -> str:
    """Objects, morphisms, conjugators and aut objects drawn over F5 and Q
    under three bounds and ten seeds, each case followed by the next draw of
    its stream, so the amount a case draws is pinned too.  Every conjugator
    is checked against its inverse on both sides."""
    lines = []
    bounds_list = (LAW_BOUNDS, GenBounds(), GenBounds(max_n=4, max_elementary=4))
    for field in (PrimeField(5), QQ):
        pool = law_pool(field)
        for b, bounds in enumerate(bounds_list):
            for seed in range(10):
                rng = random.Random(derive_seed("generated values", field.name, b, seed))
                x, y = rng.choice(pool), rng.choice(pool)
                s = Session(field=field)
                obj = random_object(x, y, rng=rng, bounds=bounds)
                s.declare("C", obj)
                s.declare("M", random_morphism_from(obj, rng, bounds))
                n = rng.randint(0, 4)
                u, u_inv = random_conjugator(x, n, rng, bounds)
                assert u * u_inv == u_inv * u == Matrix.identity(x.gb, n)
                s.declare("R", random_aut_object(x, y, 2, rng=rng, bounds=bounds))
                lines.append(f"case {field.name} bounds {b} seed {seed}")
                lines.extend(format_decls(s))
                lines.append(f"conjugator {n} {format_matrix(u)} {format_matrix(u_inv)}")
                lines.append(f"next {rng.random()!r}")
    return "\n".join(lines) + "\n"


def test_generated_values_match_golden():
    """The generators draw exactly what they drew when the golden file was
    recorded.  A change that means to draw differently (ROADMAP item 18
    plans one) re-pins the file on purpose and says why in CHANGES.md:
    ``PYTHONPATH=src python tests/test_randomgen.py`` rewrites it."""
    assert generated_values() == GENERATED_VALUES.read_text()


if __name__ == "__main__":
    GENERATED_VALUES.write_text(generated_values())
