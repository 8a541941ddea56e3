import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kcorr.errors import AmbientMismatch, InvalidArity, ParseError, UnknownVariable
from kcorr.exactalg import (DEGREVLEX, LEX, Ambient, Poly, PrimeField, QElem,
                            QQ, buchberger, parse_poly)
from kcorr.varieties import make_variety

AMB = Ambient(("x", "y"), QQ, DEGREVLEX)
AMB5 = Ambient(("x", "y"), PrimeField(5), DEGREVLEX)


def random_poly(amb, rng, max_terms=4, max_exp=3):
    terms = {}
    pool = amb.field.elements_sample()
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in amb.vars)
        terms[mono] = rng.choice(pool)
    return Poly(amb, terms)


@pytest.mark.parametrize("amb", [AMB, AMB5])
def test_ring_axioms_randomized(amb):
    rng = random.Random(11)
    for _ in range(200):
        f, g, h = (random_poly(amb, rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + Poly.zero(amb) == f
        assert f * Poly.one(amb) == f
        assert f - f == Poly.zero(amb)


def test_leading_term_orders():
    lex = Ambient(("x", "y"), QQ, LEX)
    f = parse_poly("x^2 + x*y^5 + y^9", lex)
    assert f.leading_monomial() == (2, 0)
    drl = Ambient(("x", "y"), QQ, DEGREVLEX)
    g = parse_poly("x^2 + x*y^5 + y^9", drl)
    assert g.leading_monomial() == (0, 9)
    # degrevlex tie-break: same degree, later variable loses
    h = parse_poly("x*y + y^2", drl)
    assert h.leading_monomial() == (1, 1)


def test_parser_grammar():
    f = parse_poly("x^2*y - 3/2*y + 1", AMB)
    assert str(f) == "x^2*y - 3/2*y + 1"
    assert parse_poly("2x", AMB) == parse_poly("2*x", AMB)
    assert parse_poly("x y", AMB) == parse_poly("x*y", AMB)
    assert parse_poly("-x^2", AMB) == -parse_poly("x^2", AMB)
    assert parse_poly("(x + y)^2", AMB) == parse_poly("x^2 + 2*x*y + y^2", AMB)
    assert parse_poly("3/2*y", AMB5) == parse_poly("4*y", AMB5)


def test_parser_errors():
    with pytest.raises(UnknownVariable):
        parse_poly("z + 1", AMB)
    with pytest.raises(ParseError):
        parse_poly("x +", AMB)
    with pytest.raises(ParseError):
        parse_poly("x ^ y", AMB)
    with pytest.raises(ParseError):
        parse_poly("", AMB)
    for amb, literal in ((AMB, "x - 1/0"), (AMB5, "x - 1/5")):
        with pytest.raises(ParseError) as info:
            parse_poly(literal, amb)
        assert info.value.column == 7 and info.value.line is None


@pytest.mark.parametrize("literal, message, column", [
    ("x/2", "trailing input '/'", 2),
    ("(x,", "expected ')'", 3),
    ("1/x", "expected integer denominator", 3),
])
def test_parser_errors_name_the_token(literal, message, column):
    with pytest.raises(ParseError) as info:
        parse_poly(literal, AMB)
    assert (info.value.detail, info.value.column) == (message, column)


def test_nesting_limit():
    # 100 open parentheses or nested minus signs parse; the 101st is refused
    # at its column.  A sign opening an expression does not nest.
    x = parse_poly("x", AMB)
    assert parse_poly("(" * 100 + "x" + ")" * 100, AMB) == x
    assert parse_poly("-" * 101 + "x", AMB) == -x
    assert parse_poly("2*" + "(-" * 100 + "x" + ")" * 100, AMB) == parse_poly("2*x", AMB)
    for literal, column in (("(" * 3000 + "x" + ")" * 3000, 101),
                            ("(" * 101 + "x" + ")" * 101, 101),
                            ("-" * 3000 + "x", 102),
                            ("x*" + "-" * 3000 + "x", 103)):
        with pytest.raises(ParseError, match="nested too deeply") as info:
            parse_poly(literal, AMB)
        assert info.value.column == column
    # sequential groups do not add up
    assert parse_poly(" + ".join(["(" * 60 + "x" + ")" * 60] * 3), AMB) == \
        parse_poly("3*x", AMB)


def test_literal_budgets():
    # exponents up to 1,000 and products of up to 10^5 term pairs parse; one
    # more is refused at the ^ or * that would form the product
    amb = Ambient(("x", "y"), PrimeField(1000003), DEGREVLEX)
    assert len(parse_poly("x^1000 y^1000", amb).terms) == 1
    assert len(parse_poly("(x + 1)^249 * (y + 1)^399", amb).terms) == 250 * 400
    for literal, column in (("x^1001", 2), ("x^" + "0" * 5000 + "1001", 2),
                            ("x^2000000 - 1", 2), ("x^500*y*x^501", 8),
                            ("x^600 x^401", 7), ("(x^10)^101", 7),
                            ("(x + 1)^250 * (y + 1)^399", 13),
                            ("(x + 1)^250 (y + 1)^399", 13),
                            ("1 + (x + y + 1)^400", 16)):
        with pytest.raises(ParseError, match="polynomial literal too large") as info:
            parse_poly(literal, amb)
        assert info.value.column == column


@pytest.mark.parametrize("field, equal, zeros", [
    (PrimeField(5), [(-3, 2), (Fraction(1, 2), 3), (Fraction(-7, 3), 1)],
     [5, -10, Fraction(5, 3)]),
    (PrimeField(11), [(-3, 8), (Fraction(1, 2), 6), (23, 1)], [11, Fraction(-22, 7)]),
    (QQ, [(3, Fraction(3)), (Fraction(4, 2), 2), (Fraction(-1, 3), Fraction(2, -6))],
     [0, Fraction(0, 5)]),
])
def test_const_reduces_into_the_field(field, equal, zeros):
    amb = Ambient(("x",), field, DEGREVLEX)
    for a, b in equal:
        assert Poly.const(amb, a) == Poly.const(amb, b)
        assert str(Poly.const(amb, a)) == str(Poly.const(amb, b))
    for c in zeros:
        assert Poly.const(amb, c).is_zero()
    if field is not QQ:
        assert all(0 <= c < field.p for a, _ in equal
                   for c in Poly.const(amb, a).terms.values())


def test_const_quotient_elements_over_f11():
    b = make_variety("A1", ["x"], [], PrimeField(11)).gb
    assert QElem.const(b, -3) == QElem.const(b, 8)
    assert QElem.const(b, 11) == QElem.zero(b)


def test_print_parse_round_trip():
    rng = random.Random(5)
    for amb in (AMB, AMB5):
        for _ in range(200):
            f = random_poly(amb, rng)
            assert parse_poly(str(f), amb) == f or f.is_zero()
            if f.is_zero():
                assert str(f) == "0"


@settings(max_examples=60)
@given(e=st.integers(min_value=0, max_value=8))
def test_power_matches_repeated_multiplication(e):
    f = parse_poly("x + 2*y - 1", AMB)
    expected = Poly.one(AMB)
    for _ in range(e):
        expected = expected * f
    assert f ** e == expected


def test_substitute_and_rename():
    target = Ambient(("u",), QQ, DEGREVLEX)
    f = parse_poly("x^2 + y", AMB)
    image = {"x": parse_poly("u + 1", target), "y": parse_poly("u", target)}
    assert f.substitute(image, target) == parse_poly("u^2 + 3*u + 1", target)
    wide = Ambient(("a", "x", "y"), QQ, DEGREVLEX)
    assert f.rename({"x": "x", "y": "y"}, wide) == parse_poly("x^2 + y", wide)


def test_reprs():
    assert repr(parse_poly("x^2 + 1", AMB)) == "Poly(x^2 + 1)"
    assert repr(QElem(buchberger([], AMB), parse_poly("x", AMB))) == "QElem(x)"


def test_ambient_mismatch():
    other = Ambient(("x", "y"), QQ, LEX)
    with pytest.raises(AmbientMismatch):
        parse_poly("x", AMB) + parse_poly("x", other)


U = Ambient(("u",), QQ, DEGREVLEX)
U5 = Ambient(("u",), PrimeField(5), DEGREVLEX)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Ambient(("x",), QQ, "grlex"), InvalidArity,
     "unknown monomial order 'grlex'"),
    (lambda: Poly.zero(AMB).leading_monomial(), InvalidArity,
     "zero polynomial has no leading term"),
    (lambda: Poly.zero(AMB).leading_coefficient(), InvalidArity,
     "zero polynomial has no leading term"),
    (lambda: Poly.zero(AMB).monic(), InvalidArity,
     "zero polynomial has no leading term"),
    (lambda: parse_poly("x", AMB) ** -1, InvalidArity, "negative polynomial power"),
    (lambda: parse_poly("x + y", AMB).substitute({"x": parse_poly("u", U)}, U),
     UnknownVariable, "no image supplied for 'y'"),
    (lambda: parse_poly("x", AMB).substitute(
        {"x": parse_poly("u", U5), "y": parse_poly("u", U5)}, U5),
     AmbientMismatch, "substitution cannot change the field"),
    (lambda: QElem(buchberger([], U), parse_poly("x", AMB)), AmbientMismatch,
     "Ambient(['x', 'y'], Q, degrevlex) vs Ambient(['u'], Q, degrevlex)"),
    (lambda: QElem.one(buchberger([], U)) * QElem.one(buchberger([], U5)),
     AmbientMismatch, "elements of different quotient rings"),
], ids=["order", "leading-of-zero", "leading-coefficient-of-zero", "monic-of-zero",
        "negative-power", "missing-image", "other-field",
        "element-over-other-ambient", "elements-of-two-rings"])
def test_input_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert info.value.detail == message
