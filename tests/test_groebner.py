import itertools
import json
import random
from pathlib import Path

import pytest

from oracles import canonical, field_ops, naive_buchberger, poly_to_dict
from kcorr.errors import AmbientMismatch
from kcorr.exactalg import (Ambient, GroebnerBasis, Poly, PrimeField, QQ, buchberger,
                            groebner, normal_form, parse_poly, quotient_eq)
from kcorr.exactalg.groebner import reduce_poly
from kcorr.exactalg.poly import mono_divides
from kcorr.laws import law_pool, law_suite
from kcorr.varieties import gm_power, make_variety, product

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_groebner.json").read_text())


def _ambient(case):
    field = QQ if case["field"] == "Q" else PrimeField(5)
    return Ambient(tuple(case["vars"]), field, case["order"])


def test_principal_ideal_already_reduced():
    amb = Ambient(("x",), QQ, "lex")
    gb = buchberger([parse_poly("x", amb)])
    assert [str(g) for g in gb.gens] == ["x"]


def test_monic_normalization():
    amb = Ambient(("x",), QQ, "lex")
    gb = buchberger([parse_poly("2*x", amb)])
    assert [str(g) for g in gb.gens] == ["x"]


def test_lex_pair_matches_hand_reduction():
    # derived by hand: S-polynomials reduce the pair to a triangular basis
    amb = Ambient(("x", "y"), QQ, "lex")
    gb = buchberger([parse_poly("x^2 - y", amb), parse_poly("x*y - 1", amb)])
    assert [str(g) for g in gb.gens] == ["y^3 - 1", "x - y^2"]


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_golden_bases_match_package_and_oracle(case):
    amb = _ambient(case)
    gens = [parse_poly(g, amb) for g in case["gens"]]
    gb = buchberger(gens, amb)
    assert [str(g) for g in gb.gens] == case["reduced"]
    oracle = naive_buchberger([poly_to_dict(g) for g in gens], case["order"],
                              field_ops(case["field"]))
    assert canonical(oracle, case["order"]) == canonical(
        [poly_to_dict(g) for g in gb.gens], case["order"])


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_generator_permutation_invariance(case):
    amb = _ambient(case)
    gens = [parse_poly(g, amb) for g in case["gens"]]
    reference = buchberger(gens, amb).gens
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm), amb).gens == reference


def test_normal_form_one_step_division():
    amb = Ambient(("x", "y"), QQ, "lex")
    gb = buchberger([parse_poly("x^2 - y", amb)])
    assert normal_form(parse_poly("x^2", amb), gb) == parse_poly("y", amb)


def test_generators_reduce_to_zero_and_zero_is_fixed():
    for case in GOLDEN:
        amb = _ambient(case)
        gens = [parse_poly(g, amb) for g in case["gens"]]
        gb = buchberger(gens, amb)
        for g in gens:
            assert normal_form(g, gb).is_zero()
        assert normal_form(Poly.zero(amb), gb).is_zero()


def test_quotient_eq_examples():
    amb = Ambient(("x", "y"), QQ, "lex")
    gb = buchberger([parse_poly("x^2 - y", amb)])
    assert quotient_eq(parse_poly("x^2", amb), parse_poly("y", amb), gb)
    f = parse_poly("x*y + 3", amb)
    assert quotient_eq(f, f, gb)
    unit = buchberger([Poly.one(amb)], amb)
    assert quotient_eq(Poly.one(amb), Poly.zero(amb), unit)
    assert unit.gens == (Poly.one(amb),)


@pytest.mark.parametrize("build, message", [
    (lambda: buchberger([]), "cannot infer ambient from an empty generator list"),
    (lambda: quotient_eq(parse_poly("u", Ambient(("u",), QQ, "lex")),
                         parse_poly("u", Ambient(("u",), QQ, "lex")),
                         buchberger([], Ambient(("x",), QQ, "lex"))),
     "operands live over a different ambient than the basis"),
], ids=["empty-without-ambient", "quotient-eq-other-ambient"])
def test_input_errors(build, message):
    with pytest.raises(AmbientMismatch) as info:
        build()
    assert info.value.detail == message


def test_degenerate_ideals():
    amb = Ambient(("x",), QQ, "degrevlex")
    zero_ideal = buchberger([], amb)
    assert zero_ideal.gens == ()
    f = parse_poly("x^3 + 1", amb)
    assert normal_form(f, zero_ideal) == f


def _random_poly(amb, rng, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in amb.vars)
        terms[mono] = rng.choice(amb.field.elements_sample())
    return Poly(amb, terms)


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_division_and_ring_compatibility(case):
    amb = _ambient(case)
    gens = [parse_poly(g, amb) for g in case["gens"]]
    gb = buchberger(gens, amb)
    rng = random.Random(case["name"])
    nf = gb.normal_form
    for _ in range(60):
        f, g = _random_poly(amb, rng), _random_poly(amb, rng)
        # idempotency and the ideal-membership of the defect
        assert nf(nf(f)) == nf(f)
        assert nf(f - nf(f)).is_zero()
        # compatibility with the ring operations
        assert nf(f * g) == nf(nf(f) * nf(g))
        assert nf(f + g) == nf(nf(f) + nf(g))
        # random ideal combination lies in the ideal
        combo = Poly.zero(amb)
        for gen in gens:
            combo = combo + gen * _random_poly(amb, rng, 2, 2)
        assert nf(combo).is_zero()


def _bases():
    """Every golden basis and every law-pool ring."""
    for case in GOLDEN:
        amb = _ambient(case)
        yield case["name"], buchberger([parse_poly(g, amb) for g in case["gens"]], amb)
    for field in (QQ, PrimeField(5)):
        for variety in law_pool(field):
            yield f"{variety.name}-{field}", variety.gb


BASES = dict(_bases())


def _fresh(name):
    """An equal basis whose memo of monomial normal forms starts empty."""
    return GroebnerBasis(BASES[name].ambient, BASES[name].gens)


@pytest.mark.parametrize("name", BASES)
def test_normal_form_matches_reduction_cold_and_warm(name):
    gb = _fresh(name)
    amb = gb.ambient
    rng = random.Random(name)
    drawn = [_random_poly(amb, rng, 6, 4) for _ in range(40)]
    # normal forms, whose monomials are all standard
    reduced = [reduce_poly(f, gb.gens) for f in drawn]
    inputs = drawn + reduced
    want = reduced + reduced
    for _ in ("cold", "warm"):
        got = [gb.normal_form(f) for f in inputs]
        assert got == want
        assert [str(f) for f in got] == [str(f) for f in want]
    # the cold pass memoized every monomial of each normal form
    assert all(got is f for got, f in zip(got[len(drawn):], reduced))
    lead = [g.leading_monomial() for g in gb.gens]
    assert not any(mono_divides(lm, m) for m in gb._standard for lm in lead)


@pytest.mark.parametrize("name", [name for name, gb in BASES.items() if gb.gens])
def test_leading_monomials_never_count_as_standard(name):
    gb = _fresh(name)
    one = gb.ambient.field.one
    for g in gb.gens:
        lm = g.leading_monomial()
        f = Poly(gb.ambient, {lm: one})
        for _ in ("cold", "warm"):
            assert gb.normal_form(f) == reduce_poly(f, gb.gens) != f
        assert lm not in gb._standard


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_standard_inputs_come_back_as_themselves(field):
    gb = _fresh(f"Gm1-{field}")
    amb = gb.ambient
    t1s1 = parse_poly("t1*s1", amb)
    assert gb.normal_form(t1s1) == Poly.one(amb)
    assert (1, 1) not in gb._standard
    f = parse_poly("t1^2 + 3*s1 + 1", amb)
    assert gb.normal_form(f) == f
    assert gb._standard == {(2, 0), (0, 1), (0, 0)}
    assert gb.normal_form(f) is f
    # one reducible monomial sends the input through the reduction
    assert gb.normal_form(f + t1s1) == parse_poly("t1^2 + 3*s1 + 2", amb)
    zero = Poly.zero(amb)
    assert gb.normal_form(zero) is zero


def test_ambient_mismatch_errors():
    amb = Ambient(("x", "y"), QQ, "lex")
    other = Ambient(("x", "y"), QQ, "degrevlex")
    gb = buchberger([parse_poly("x", amb)])
    with pytest.raises(AmbientMismatch):
        normal_form(parse_poly("x", other), gb)
    with pytest.raises(AmbientMismatch):
        buchberger([parse_poly("x", amb), parse_poly("x", other)])


# -- the pair criteria drop only redundant work ----------------------------------

RANDOM_IDEAL_CASES = [(f, o) for f in ("F5", "Q") for o in ("lex", "degrevlex")]


def _small_ideal(rng, field):
    """1-3 generators in 2-3 variables, each with 1-3 terms of exponent <= 2."""
    amb_vars = ("x", "y", "z")[:rng.randint(2, 3)]
    coeffs = [c for c in field.elements_sample() if c]
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {tuple(rng.randint(0, 2) for _ in amb_vars): rng.choice(coeffs)
                 for _ in range(rng.randint(1, 3))}
        gens.append(terms)
    return amb_vars, gens


@pytest.mark.parametrize("field_label,order", RANDOM_IDEAL_CASES,
                         ids=[f"{f}-{o}" for f, o in RANDOM_IDEAL_CASES])
def test_random_ideals_match_oracle_and_ignore_generator_order(field_label, order):
    field = QQ if field_label == "Q" else PrimeField(5)
    rng = random.Random(f"gm-{field_label}-{order}")
    for _ in range(38):
        amb_vars, raw = _small_ideal(rng, field)
        amb = Ambient(amb_vars, field, order)
        gens = [Poly(amb, terms) for terms in raw]
        gb = buchberger(gens, amb)
        oracle = naive_buchberger([poly_to_dict(g) for g in gens], order,
                                  field_ops(field_label))
        assert canonical(oracle, order) == canonical(
            [poly_to_dict(g) for g in gb.gens], order), raw
        for perm in itertools.permutations(gens):
            assert buchberger(list(perm), amb).gens == gb.gens, raw


# cyclic-4 and katsura-4 in degrevlex, as varieties read them; katsura-4 over Q
# finishes only when the pair criteria prune the redundant S-polynomials.
CATALOGUE = {
    "cyclic4": (("a", "b", "c", "d"),
                ["a + b + c + d", "a*b + b*c + c*d + d*a",
                 "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"]),
    "katsura4": (("u0", "u1", "u2", "u3"),
                 ["u0 + 2*u1 + 2*u2 + 2*u3 - 1",
                  "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
                  "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
                  "u1^2 + 2*u0*u2 + 2*u1*u3 - u2"]),
}
CATALOGUE_CASES = [(n, f) for n in CATALOGUE for f in ("Q", "F32003")]


@pytest.mark.parametrize("name,field_label", CATALOGUE_CASES,
                         ids=[f"{n}-{f}" for n, f in CATALOGUE_CASES])
def test_catalogue_basis_certificate_and_pair_count(name, field_label, monkeypatch):
    field = QQ if field_label == "Q" else PrimeField(32003)
    variables, texts = CATALOGUE[name]
    amb = Ambient(variables, field, "degrevlex")
    gens = [parse_poly(t, amb) for t in texts]
    made = []
    s_poly = groebner._s_poly

    def counting_s_poly(f, g):
        made.append((f, g))
        return s_poly(f, g)

    monkeypatch.setattr(groebner, "_s_poly", counting_s_poly)
    # an empty table, so the algorithm runs and its pairs are counted
    monkeypatch.setattr(groebner, "_BASES", {})
    gb = buchberger(gens, amb)
    assert 0 < len(made) <= 16

    for g in gens:
        assert gb.normal_form(g).is_zero()
    # Buchberger's criterion: every S-polynomial of the output reduces to 0
    for f, g in itertools.combinations(gb.gens, 2):
        assert gb.normal_form(s_poly(f, g)).is_zero()
    # reduced and monic: no term of one element is divisible by another's
    # leading monomial
    for i, g in enumerate(gb.gens):
        assert g.sorted_terms()[0][1] == field.one
        others = gb.gens[:i] + gb.gens[i + 1:]
        assert groebner.reduce_poly(g, others) == g


# -- one reduced basis per generator list ----------------------------------------

def test_equal_generator_lists_share_one_basis(monkeypatch):
    monkeypatch.setattr(groebner, "_BASES", {})
    amb = Ambient(("x", "y"), QQ, "lex")
    gens = [parse_poly("x^2 - y", amb), parse_poly("x*y - 1", amb)]
    gb = buchberger(gens, amb)
    assert buchberger(list(gens), amb) is gb
    assert buchberger(tuple(gens)) is gb
    # equal generators parsed apart, over an equal ambient built apart
    twin = Ambient(("x", "y"), QQ, "lex")
    assert buchberger([parse_poly("x^2 - y", twin), parse_poly("x*y - 1", twin)]) is gb
    # zero generators do not change the key
    zero = Poly.zero(amb)
    assert buchberger([zero] + gens + [zero], amb) is gb
    assert buchberger([zero], amb) is buchberger([], amb)
    assert len(groebner._BASES) == 2


def test_fields_and_orders_key_distinct_bases(monkeypatch):
    monkeypatch.setattr(groebner, "_BASES", {})
    texts = ["x^2 - y", "x*y - 1"]
    bases = []
    for field in (QQ, PrimeField(5)):
        for order in ("lex", "degrevlex"):
            amb = Ambient(("x", "y"), field, order)
            bases.append(buchberger([parse_poly(t, amb) for t in texts], amb))
    assert len({id(gb) for gb in bases}) == 4
    assert len(groebner._BASES) == 4
    assert [str(g) for g in bases[0].gens] == ["y^3 - 1", "x - y^2"]


def test_errors_still_raise_on_a_warm_table():
    amb = Ambient(("x", "y"), QQ, "lex")
    other = Ambient(("x", "y"), QQ, "degrevlex")
    x, y = parse_poly("x", amb), parse_poly("y", other)
    buchberger([], amb)
    buchberger([x], amb)
    buchberger([y], other)
    with pytest.raises(AmbientMismatch) as info:
        buchberger([])
    assert info.value.detail == "cannot infer ambient from an empty generator list"
    with pytest.raises(AmbientMismatch):
        buchberger([x, y])
    with pytest.raises(AmbientMismatch):
        buchberger([x], other)


def test_products_built_apart_share_one_basis():
    a = make_variety("A", ("u",), ["u^2 - u"], QQ)
    b = gm_power(1, QQ)
    first, second = product(a, b), product(a, b)
    assert first is not second and first == second
    assert first.gb is second.gb


def test_law_report_does_not_depend_on_the_table(monkeypatch):
    def text():
        report = law_suite(seed=7, cases=3).to_text()
        return [line for line in report.splitlines() if not line.startswith("wall-time:")]

    monkeypatch.setattr(groebner, "_BASES", {})
    cold = text()
    assert groebner._BASES
    assert text() == cold
    golden = Path(__file__).parent / "data" / "laws_seed7.txt"
    assert cold == golden.read_text().splitlines()
