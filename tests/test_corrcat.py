import random
from fractions import Fraction

import pytest

from kcorr.config import debug_validation
from kcorr.corrcat import (add_morphisms, compose_vertical, direct_sum,
                           eval_nonunital, graph_object, identity_morphism,
                           identity_object, make_corr_morphism,
                           make_correspondence, scale_morphism, sum_injections,
                           verify_iso, zero_morphism, zero_object, IsoCertificate)
from kcorr.cli import main
from kcorr.corrcat import _trusted_object
from kcorr.errors import (AmbientMismatch, InternalLawViolation, InvalidMorphism,
                          InvalidObject, ShapeError, UnknownVariable)
from kcorr.exactalg import Matrix, PrimeField, QElem, QQ
from kcorr.laws import law_pool
from kcorr.randomgen import GenBounds, random_object, random_morphism_from
from kcorr.varieties import make_morphism, make_variety

BOUNDS = GenBounds(max_n=2, max_deg=1, max_elementary=1, zero_weight=0.0)


@pytest.fixture
def setting():
    pt, line, two, _ = law_pool(QQ)
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    obj = make_correspondence(pt, two, 2, Matrix.identity(b, 2),
                              [Matrix.diagonal(b, [one, zero])])
    return pt, line, two, obj


def _scalar(b, v):
    return QElem.const(b, Fraction(v))


def test_eval_unit_gives_idempotent(setting):
    *_, obj = setting
    assert eval_nonunital(obj, "1") == obj.p
    assert eval_nonunital(obj, "y^2 - y").is_zero()


def test_eval_is_multiplicative_randomized(setting):
    *_, obj = setting
    # expand-then-evaluate equals evaluate-then-multiply
    lhs = eval_nonunital(obj, "(y + 1)^2")
    rhs = (eval_nonunital(obj, "y") * eval_nonunital(obj, "y")
           + eval_nonunital(obj, "y").scale(Fraction(2)) + obj.p)
    assert lhs == rhs
    rng = random.Random(9)
    two = obj.Y
    for _ in range(40):
        o = random_object(obj.X, two, rng=rng, bounds=BOUNDS)
        f, g = "y + 2", "3*y - 1"
        prod = eval_nonunital(o, f) * eval_nonunital(o, g)
        assert prod == eval_nonunital(o, "(y + 2)*(3*y - 1)")


def test_eval_stays_in_corner(setting):
    *_, obj = setting
    rng = random.Random(10)
    for _ in range(30):
        o = random_object(obj.X, obj.Y, rng=rng, bounds=BOUNDS)
        v = eval_nonunital(o, "y^2 + 3*y + 1")
        assert o.p * v * o.p == v


def test_eval_rejects_stray_variables(setting):
    pt, line, two, obj = setting
    with pytest.raises(UnknownVariable):
        eval_nonunital(obj, "z")
    with pytest.raises(AmbientMismatch) as err:
        eval_nonunital(obj, line.var("x"))
    assert err.value.detail == "element not over k[TwoPts]"
    with pytest.raises(UnknownVariable) as err:
        eval_nonunital(obj, line.var("x").rep)
    assert err.value.detail == "polynomial over ('x',) does not match TwoPts"
    # the same variable over another field is another ambient
    other = law_pool(PrimeField(5))[2]
    with pytest.raises(UnknownVariable) as err:
        eval_nonunital(obj, other.var("y").rep)
    assert err.value.detail == "polynomial over ('y',) does not match TwoPts"


def test_make_correspondence_validation(setting):
    pt, line, two, obj = setting
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    # rank-one object over (pt, pt)
    make_correspondence(pt, pt, 2, Matrix.diagonal(b, [one, zero]), [])
    with pytest.raises(InvalidObject, match="relation"):
        make_correspondence(pt, two, 1, Matrix.identity(b, 1),
                            [Matrix(b, [[_scalar(b, 2)]])])
    with pytest.raises(InvalidObject, match="idempotent"):
        make_correspondence(pt, pt, 1, Matrix(b, [[_scalar(b, 2)]]), [])
    bad_corner = Matrix(b, [[zero, one], [zero, zero]])
    with pytest.raises(InvalidObject, match="corner"):
        make_correspondence(pt, two, 2, Matrix.diagonal(b, [one, zero]),
                            [bad_corner])


def test_zero_object_round_trips(setting):
    pt, line, two, obj = setting
    z = zero_object(pt, two)
    assert z.n == 0
    assert direct_sum(obj, z) == obj
    assert direct_sum(z, obj) == obj


def test_graph_objects(setting):
    pt, line, two, obj = setting
    ident = identity_object(pt)
    assert ident.n == 1 and ident.p == Matrix.identity(pt.gb, 1)
    sq = graph_object(make_morphism(line, line, ["x^2"]))
    assert str(sq.gen_images[0][0, 0]) == "x^2"


def test_direct_sum_block_structure(setting):
    pt, line, two, obj = setting
    s = direct_sum(obj, obj)
    assert s.n == 4
    assert s.p == Matrix.identity(pt.gb, 4)
    assert direct_sum(direct_sum(obj, obj), obj) == direct_sum(obj, direct_sum(obj, obj))
    other = make_correspondence(line, two, 1, Matrix.identity(line.gb, 1),
                                [Matrix.identity(line.gb, 1)])
    with pytest.raises(AmbientMismatch):
        direct_sum(obj, other)


def test_morphism_validation_and_examples(setting):
    pt, line, two, obj = setting
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    ident = make_corr_morphism(obj, obj, obj.p)
    assert ident.mat == identity_morphism(obj).mat
    zero_m = zero_morphism(obj, obj)
    assert zero_m.mat.is_zero()
    e11 = Matrix(b, [[one, zero], [zero, zero]])
    make_corr_morphism(obj, obj, e11)
    e12 = Matrix(b, [[zero, one], [zero, zero]])
    with pytest.raises(InvalidMorphism, match="intertwining"):
        make_corr_morphism(obj, obj, e12)


def test_category_axioms_randomized(setting):
    pt, line, two, obj = setting
    rng = random.Random(77)
    for _ in range(40):
        src = random_object(line, two, rng=rng, bounds=BOUNDS)
        a = random_morphism_from(src, rng, BOUNDS)
        bm = random_morphism_from(a.dst, rng, BOUNDS)
        c = random_morphism_from(bm.dst, rng, BOUNDS)
        assert compose_vertical(compose_vertical(c, bm), a).mat == \
            compose_vertical(c, compose_vertical(bm, a)).mat
        assert compose_vertical(a, identity_morphism(src)).mat == a.mat
        assert compose_vertical(identity_morphism(a.dst), a).mat == a.mat
        assert compose_vertical(a, zero_morphism(src, src)).mat.is_zero()


def test_hom_sets_are_linear(setting):
    pt, line, two, obj = setting
    rng = random.Random(78)
    src = random_object(line, two, rng=rng, bounds=BOUNDS)
    a = random_morphism_from(src, rng, BOUNDS)
    b2 = make_corr_morphism(a.src, a.dst, a.dst.p * a.mat)
    s = add_morphisms(a, b2)
    assert s.mat == a.mat + b2.mat
    assert scale_morphism(a, Fraction(3)).mat == a.mat.scale(Fraction(3))


def test_biproduct_equations(setting):
    pt, line, two, obj = setting
    rng = random.Random(79)
    a = random_object(line, two, rng=rng, bounds=BOUNDS)
    b2 = random_object(line, two, rng=rng, bounds=BOUNDS)
    s, i1, i2, p1, p2 = sum_injections(a, b2)
    assert compose_vertical(p1, i1).mat == a.p
    assert compose_vertical(p2, i2).mat == b2.p
    assert add_morphisms(compose_vertical(i1, p1),
                         compose_vertical(i2, p2)).mat == s.p
    assert compose_vertical(p2, i1).mat.is_zero()


def test_verify_iso(setting):
    pt, line, two, obj = setting
    ident = identity_morphism(obj)
    assert verify_iso(IsoCertificate(ident, ident))
    z = zero_morphism(obj, obj)
    assert not verify_iso(IsoCertificate(z, z))
    # conjugation by an invertible scalar matrix
    b = pt.gb
    u = Matrix(b, [[_scalar(b, 1), _scalar(b, 1)], [_scalar(b, 0), _scalar(b, 1)]])
    u_inv = Matrix(b, [[_scalar(b, 1), _scalar(b, -1)], [_scalar(b, 0), _scalar(b, 1)]])
    src = make_correspondence(pt, pt, 2, Matrix.diagonal(b, [_scalar(b, 1), _scalar(b, 0)]), [])
    dst = make_correspondence(pt, pt, 2, u * src.p * u_inv, [])
    fwd = make_corr_morphism(src, dst, u * src.p)
    bwd = make_corr_morphism(dst, src, src.p * u_inv)
    assert verify_iso(IsoCertificate(fwd, bwd))


def test_debug_mode_revalidates(setting):
    pt, line, two, obj = setting
    rng = random.Random(80)
    with debug_validation():
        src = random_object(line, two, rng=rng, bounds=BOUNDS)
        mor = random_morphism_from(src, rng, BOUNDS)
        compose_vertical(identity_morphism(mor.dst), mor)


def test_law_check_on_a_derived_value_is_an_internal_violation(setting):
    pt, line, two, obj = setting
    doubled = obj.p + obj.p  # not idempotent
    assert _trusted_object(pt, two, 2, doubled, obj.gen_images).p == doubled
    with debug_validation():
        with pytest.raises(InternalLawViolation,
                           match="derived CorrObject failed validation: idempotent"):
            _trusted_object(pt, two, 2, doubled, obj.gen_images)


def test_bad_input_stays_a_user_error(setting, tmp_path, capsys):
    pt, line, two, obj = setting
    with debug_validation():
        with pytest.raises(InvalidObject, match="idempotent"):
            make_correspondence(pt, two, 2, obj.p + obj.p, obj.gen_images)
    path = tmp_path / "bad.kc"
    path.write_text("field Q\nvariety pt { vars = []; ideal = [] }\n"
                    "corr C : pt -> pt { n = 1; unit = [[2]] }\n", encoding="utf-8")
    assert main(["--debug-validate", "validate", str(path)]) == 2
    assert "idempotent law p*p = p fails" in capsys.readouterr().err


def _input_check_world():
    pt, line, two, _ = law_pool(QQ)
    plane = make_variety("A2", ["x", "y"], [], QQ)
    b = pt.gb
    one, zero = QElem.one(b), QElem.zero(b)
    e11 = Matrix.diagonal(b, [one, zero])
    e12 = Matrix(b, [[zero, one], [zero, zero]])
    e21 = Matrix(b, [[zero, zero], [one, zero]])
    obj = make_correspondence(pt, two, 2, Matrix.identity(b, 2), [e11])
    other = make_correspondence(pt, two, 2, Matrix.identity(b, 2), [Matrix.identity(b, 2)])
    square = make_correspondence(pt, pt, 2, Matrix.identity(b, 2), [])
    return dict(pt=pt, line=line, two=two, plane=plane, b=b, e11=e11, e12=e12,
                e21=e21, obj=obj, other=other, square=square,
                ident=identity_morphism(obj), i2=Matrix.identity(b, 2),
                foreign=Matrix.identity(line.gb, 2))


# (case, call, error type, message): one case per input check of the module
INPUT_CHECKS = [
    ("idempotent-ring", lambda w: make_correspondence(
        w["pt"], w["pt"], 2, w["foreign"], []),
     AmbientMismatch, "idempotent not over k[pt]"),
    ("idempotent-shape", lambda w: make_correspondence(
        w["pt"], w["pt"], 1, w["i2"], []),
     ShapeError, "idempotent must be 1x1"),
    ("image-count", lambda w: make_correspondence(
        w["pt"], w["two"], 2, w["i2"], []),
     ShapeError, "expected 1 generator images for TwoPts, got 0"),
    ("image-ring", lambda w: make_correspondence(
        w["pt"], w["two"], 2, w["i2"], [w["foreign"]]),
     AmbientMismatch, "generator image not over k[pt]"),
    ("image-shape", lambda w: make_correspondence(
        w["pt"], w["two"], 2, w["i2"], [Matrix.identity(w["b"], 1)]),
     ShapeError, "generator images must be 2x2"),
    ("corner-law", lambda w: make_correspondence(
        w["pt"], w["line"], 2, w["e11"], [w["e21"]]),
     InvalidObject, "corner law p*A = A fails for generator x"),
    ("commutation-law", lambda w: make_correspondence(
        w["pt"], w["plane"], 2, w["i2"], [w["e11"], w["e12"]]),
     InvalidObject, "commutation law fails for generators x, y"),
    ("morphism-endpoints", lambda w: make_corr_morphism(
        w["obj"], w["square"], w["i2"]),
     AmbientMismatch, "morphism endpoints over different (X, Y)"),
    ("morphism-ring", lambda w: make_corr_morphism(
        w["obj"], w["obj"], w["foreign"]),
     AmbientMismatch, "matrix not over k[pt]"),
    ("morphism-shape", lambda w: make_corr_morphism(
        w["obj"], w["obj"], Matrix.identity(w["b"], 1)),
     ShapeError, "matrix must be 2x2"),
    ("zero-morphism", lambda w: zero_morphism(w["obj"], w["square"]),
     AmbientMismatch, "morphism endpoints over different (X, Y)"),
    ("compose-vertical", lambda w: compose_vertical(
        w["ident"], identity_morphism(w["other"])),
     AmbientMismatch, "morphisms are not composable"),
    ("add-morphisms", lambda w: add_morphisms(
        w["ident"], identity_morphism(w["other"])),
     AmbientMismatch, "morphism sum needs identical endpoints"),
]


@pytest.mark.parametrize("make, error, message",
                         [case[1:] for case in INPUT_CHECKS],
                         ids=[case[0] for case in INPUT_CHECKS])
def test_input_checks(make, error, message):
    with pytest.raises(error) as info:
        make(_input_check_world())
    assert type(info.value) is error and info.value.detail == message


@pytest.mark.parametrize("block, message", [
    ("n = 2; unit = [[1, 0], [0, 0]]; gen x = [[0, 0], [1, 0]]; gen y = [[0, 0], [0, 0]]",
     "corner law p*A = A fails for generator x"),
    ("n = 2; unit = [[1, 0], [0, 1]]; gen x = [[1, 0], [0, 0]]; gen y = [[0, 1], [0, 0]]",
     "commutation law fails for generators x, y"),
], ids=["corner-law", "commutation-law"])
def test_object_laws_through_run(block, message, tmp_path, capsys):
    path = tmp_path / "laws.kc"
    path.write_text("field Q\nvariety pt { vars = []; ideal = [] }\n"
                    "variety A2 { vars = [x, y]; ideal = [] }\n"
                    f"corr C : pt -> A2 {{ {block} }}\n", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line 4: {message}\n"
