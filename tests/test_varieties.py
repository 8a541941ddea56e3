import random

import pytest

from kcorr.errors import (AmbientMismatch, FieldMismatch, InvalidArity,
                          NotWellDefined, ShapeError, UnknownVariable)
from kcorr.exactalg import (DEGREVLEX, Ambient, Poly, PrimeField, QQ,
                            buchberger)
from kcorr.varieties import (compose_maps, gm_power, identity_map,
                             make_morphism, make_variety, point, product,
                             product_morphism, split_projections, split_torus,
                             torus_arity)


@pytest.fixture
def qq_pool():
    pt = point(QQ)
    line = make_variety("A1", ["x"], [], QQ)
    two = make_variety("TwoPts", ["y"], ["y^2 - y"], QQ)
    return pt, line, two


def test_point_and_line(qq_pool):
    pt, line, _ = qq_pool
    assert pt.vars == () and pt.gb.gens == ()
    assert line.vars == ("x",)
    assert line.qelem("x^2 + 1") == line.qelem("x*x + 1")


def test_two_points_presentation(qq_pool):
    _, _, two = qq_pool
    assert [str(g) for g in two.gb.gens] == ["y^2 - y"]
    # confirmed against the basis computation on the raw generators
    assert two.gb == buchberger(two.ideal_gens, two.ambient)
    assert two.qelem("y^2") == two.qelem("y")


def test_stray_variable_rejected():
    with pytest.raises(UnknownVariable):
        make_variety("V", ["x"], ["x + z"], QQ)


def test_product_point_is_prefix_identity(qq_pool):
    pt, _, two = qq_pool
    p = product(pt, two)
    assert p.vars == ("TwoPts.y",)
    assert [str(g) for g in p.ideal_gens] == ["TwoPts.y^2 - TwoPts.y"]
    q = product(two, pt)
    assert q.vars == ("TwoPts.y",)


def test_product_of_lines(qq_pool):
    _, line, _ = qq_pool
    p = product(line, line)
    assert p.vars == ("A1.1.x", "A1.2.x")
    assert p.ideal_gens == ()


def test_product_two_points_squared(qq_pool):
    _, _, two = qq_pool
    p = product(two, two)
    assert len(p.ideal_gens) == 2
    assert len(p.gb.gens) == 2
    assert p.gb == buchberger(p.ideal_gens, p.ambient)


def test_product_strict_associativity(qq_pool):
    pt, line, two = qq_pool
    gm = gm_power(1, QQ)
    for a, b, c in [(line, two, gm), (line, line, line), (pt, two, pt)]:
        assert product(product(a, b), c) == product(a, product(b, c))


def test_product_field_mismatch(qq_pool):
    _, line, _ = qq_pool
    other = make_variety("A1", ["x"], [], PrimeField(5))
    with pytest.raises(FieldMismatch):
        product(line, other)


def test_morphism_validation(qq_pool):
    pt, line, two = qq_pool
    ident = identity_map(line)
    assert ident.images[0] == line.var("x")
    make_morphism(line, line, ["x^2"])  # nothing to check, empty ideal
    make_morphism(two, pt, [])
    make_morphism(pt, two, ["1"])
    make_morphism(pt, two, ["0"])
    with pytest.raises(NotWellDefined):
        make_morphism(pt, two, ["2"])


def test_morphism_composition_is_substitution(qq_pool):
    _, line, _ = qq_pool
    sq = make_morphism(line, line, ["x^2"])
    shift = make_morphism(line, line, ["x + 1"])
    comp = compose_maps(sq, shift)  # sq after shift: x -> (x+1)^2
    assert str(comp.images[0]) == "x^2 + 2*x + 1"
    assoc_l = compose_maps(compose_maps(sq, shift), sq)
    assoc_r = compose_maps(sq, compose_maps(shift, sq))
    assert assoc_l == assoc_r


def test_pullback_functoriality_random(qq_pool):
    _, line, two = qq_pool
    rng = random.Random(3)
    f = make_morphism(line, line, ["x^2 + 1"])
    g = make_morphism(line, line, ["x - 2"])
    comp = compose_maps(g, f)
    for _ in range(50):
        coeffs = [rng.randint(-3, 3) for _ in range(3)]
        q = line.qelem(f"{coeffs[0]} + {coeffs[1]}*x + {coeffs[2]}*x^2")
        assert comp.pull(q) == f.pull(g.pull(q))


def test_gm_power():
    gm1 = gm_power(1, QQ)
    assert gm1.vars == ("t1", "s1")
    assert [str(g) for g in gm1.gb.gens] == ["t1*s1 - 1"]
    gm2 = gm_power(2, QQ)
    assert len(gm2.vars) == 4 and len(gm2.ideal_gens) == 2
    # two reduction steps collapse the full product of coordinates
    assert gm2.qelem("t1*s1*t2*s2") == gm2.one()
    assert torus_arity(gm2) == 2
    assert torus_arity(gm1) == 1
    assert torus_arity(point(QQ)) is None
    with pytest.raises(InvalidArity):
        gm_power(0, QQ)


def test_split_projections_and_product_morphism(qq_pool):
    _, line, two = qq_pool
    prod = product(line, two)
    q_left, q_right = split_projections(prod, line, two)
    assert q_left.pull(line.qelem("x^2")) == prod.qelem("A1.x^2")
    assert q_right.pull(two.qelem("y")) == prod.qelem("TwoPts.y")
    f = make_morphism(line, line, ["x^2"])
    g = identity_map(two)
    pm = product_morphism(f, g)
    assert pm.source == prod and pm.target == prod
    assert str(pm.images[0]) == "A1.x^2"


def test_reserved_separator_rejected():
    with pytest.raises(InvalidArity):
        make_variety("bad.name", ["x"], [], QQ)
    with pytest.raises(InvalidArity):
        make_variety("V", ["bad.var"], [], QQ)


def test_split_projections_of_a_nested_product(qq_pool):
    _, line, two = qq_pool
    gm = gm_power(1, QQ)
    inner = product(line, two)
    prod = product(inner, gm)
    q_left, q_right = split_projections(prod, inner, gm)
    assert q_left.target == inner and q_right.target == gm
    assert q_left.pull(inner.qelem("A1.x*TwoPts.y")) == prod.qelem("A1.x*TwoPts.y")
    assert q_right.pull(gm.qelem("t1 + 2*s1")) == prod.qelem("Gm1.t1 + 2*Gm1.s1")
    q_line, q_rest = split_projections(prod, line, product(two, gm))
    assert q_line.pull(line.qelem("x")) == prod.qelem("A1.x")
    assert q_rest.images == (prod.var("TwoPts.y"), prod.var("Gm1.t1"),
                             prod.var("Gm1.s1"))
    for left, right in ((two, product(line, gm)), (inner, line), (line, inner)):
        with pytest.raises(ShapeError):
            split_projections(prod, left, right)
    with pytest.raises(ShapeError):
        split_projections(line, line, point(QQ))


def test_split_torus_shapes_and_base_cost(qq_pool, monkeypatch):
    import kcorr.varieties
    pt, line, two = qq_pool
    gm1, gm2 = gm_power(1, QQ), gm_power(2, QQ)
    assert split_torus(gm1) == (pt, gm1, 1)
    assert split_torus(product(two, gm2)) == (two, gm2, 2)
    three = product(product(line, two), line)
    y = product(three, gm1)
    calls, assembled = [], []
    true_buchberger = kcorr.varieties.buchberger
    true_assemble = kcorr.varieties._assemble_product
    monkeypatch.setattr(kcorr.varieties, "buchberger",
                        lambda *args: calls.append(args) or true_buchberger(*args))
    monkeypatch.setattr(kcorr.varieties, "_assemble_product",
                        lambda fs: assembled.append(fs) or true_assemble(fs))
    split = split_torus(y)
    assert split == (three, gm1, 1)
    # the three-factor base is assembled once, its basis computed when read
    assert len(assembled) == 1 and calls == []
    assert split[0].gb is split[0].gb
    assert len(calls) == 1
    with pytest.raises(ShapeError):
        split_torus(product(gm1, line))
    with pytest.raises(ShapeError):
        split_torus(line)


def _foreign_generator():
    other = Ambient(("y",), QQ, DEGREVLEX)
    return make_variety("V", ["x"], [Poly.variable(other, "y")], QQ)


# (case, call, error type, message): one case per input check of the module
VARIETY_CHECKS = [
    ("morphism-field", lambda line, two: make_morphism(
        line, make_variety("A1", ["x"], [], PrimeField(5)), ["x"]),
     FieldMismatch, "Q vs F5"),
    ("morphism-image-count", lambda line, two: make_morphism(line, two, []),
     InvalidArity, "expected 1 images for TwoPts, got 0"),
    ("foreign-generator", lambda line, two: _foreign_generator(),
     UnknownVariable, "generator y not over ('x',)"),
    ("compose-mismatch", lambda line, two: compose_maps(
        identity_map(line), identity_map(two)),
     AmbientMismatch, "cannot compose A1->A1 after TwoPts->TwoPts"),
    ("element-of-other-ring", lambda line, two: line.qelem(two.var("y")),
     AmbientMismatch, "element not over k[A1]"),
    ("torus-vars-other-relation", lambda line, two: split_torus(
        make_variety("NotGm1", ["t1", "s1"], ["t1*s1 - 2"], QQ)),
     ShapeError, "NotGm1 has no trailing torus factor"),
]


@pytest.mark.parametrize("make, error, message",
                         [case[1:] for case in VARIETY_CHECKS],
                         ids=[case[0] for case in VARIETY_CHECKS])
def test_input_checks(qq_pool, make, error, message):
    _, line, two = qq_pool
    with pytest.raises(error) as info:
        make(line, two)
    assert type(info.value) is error and info.value.detail == message
