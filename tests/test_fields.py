import random
import time
from fractions import Fraction
from itertools import takewhile

import pytest
from hypothesis import given, strategies as st

from kcorr.cli import main
from kcorr.exactalg import DEGREVLEX, QQ, Ambient, Poly, PrimeField, parse_field
from kcorr.exactalg.fields import _is_prime
from kcorr.errors import InvalidField

FIELDS = [QQ, PrimeField(5), PrimeField(2), PrimeField(7)]


@pytest.mark.parametrize("field", FIELDS)
def test_field_axioms_randomized(field):
    rng = random.Random(20240817)
    pool = field.elements_sample()
    for _ in range(300):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert field.add(a, field.add(b, c)) == field.add(field.add(a, b), c)
        assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                          field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero
        if a:
            assert field.mul(a, field.inv(a)) == field.one


@pytest.mark.parametrize("field, message", [(QQ, "inverse of 0 in Q"),
                                            (PrimeField(5), "inverse of 0 in F5")],
                         ids=["Q", "F5"])
def test_inverse_of_zero_refused(field, message):
    with pytest.raises(ZeroDivisionError) as info:
        field.inv(field.zero)
    assert str(info.value) == message


@given(a=st.integers(), b=st.integers())
def test_prime_field_ring_map(a, b):
    f5 = PrimeField(5)
    assert f5.add(f5.from_int(a), f5.from_int(b)) == f5.from_int(a + b)
    assert f5.mul(f5.from_int(a), f5.from_int(b)) == f5.from_int(a * b)


def test_non_prime_modulus_rejected():
    with pytest.raises(InvalidField):
        PrimeField(6)
    with pytest.raises(InvalidField):
        PrimeField(1)


def _primes_by_trial_division(limit):
    primes = []
    for n in range(2, limit):
        if all(n % q for q in takewhile(lambda q: q * q <= n, primes)):
            primes.append(n)
    return primes


def test_primality_agrees_with_trial_division():
    primes = set(_primes_by_trial_division(200_000))
    assert [n for n in range(200_000) if _is_prime(n)] == sorted(primes)


def test_large_moduli():
    start = time.perf_counter()
    for p in (2 ** 61 - 1, 10 ** 18 + 3, 2 ** 64 - 59):
        assert PrimeField(p).p == p
    assert time.perf_counter() - start < 0.5
    # a strong pseudoprime to the bases 2, 3, 5 and 7, and a square of a prime
    for n in (3215031751, (2 ** 31 - 1) ** 2):
        assert not _is_prime(n)
        with pytest.raises(InvalidField, match="not prime"):
            PrimeField(n)
    with pytest.raises(InvalidField, match="p < 2\\^64"):
        PrimeField(2 ** 64 + 13)


def test_modulus_bound_is_an_input_error(capsys):
    assert main(["laws", "--field", "Fp:18446744073709551629"]) == 2
    assert "p < 2^64" in capsys.readouterr().err


def test_prime_field_instances_cached():
    assert PrimeField(5) is PrimeField(5)
    assert PrimeField(5) != PrimeField(7)


def test_rational_literals():
    assert QQ.from_fraction(3, 2) * 2 == 3
    f5 = PrimeField(5)
    assert f5.from_fraction(3, 2) == f5.mul(3, f5.inv(2))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_samples_are_canonical_residues(p):
    sample = PrimeField(p).elements_sample()
    assert sample and all(c in range(p) for c in sample)


@pytest.mark.parametrize("spec", ["Q", "F5", "Fp:5", " Fp: 5 "])
def test_field_specs(spec):
    assert parse_field(spec) == (QQ if spec == "Q" else PrimeField(5))


@pytest.mark.parametrize("spec", ["F", "Fp:", "Fp:x", "F\u00b2", "Fp:\u00b2", "R"])
def test_bad_field_specs_are_invalid_fields(spec):
    with pytest.raises(InvalidField, match="unknown field spec"):
        parse_field(spec)


@pytest.mark.parametrize("method, args, expected", [
    ("from_int", (3,), 3),
    ("from_fraction", (4, 2), 2),
    ("from_fraction", (1, 2), Fraction(1, 2)),
    ("inv", (2,), Fraction(1, 2)),
    ("inv", (Fraction(1, 2),), 2),
    ("inv", (-1,), -1),
])
def test_rational_scalars_are_int_exactly_when_integral(method, args, expected):
    value = getattr(QQ, method)(*args)
    assert (type(value), value) == (type(expected), expected)
    assert (type(QQ.zero), type(QQ.one)) == (int, int)


rationals = st.one_of(st.integers(-50, 50),
                      st.fractions(-50, 50, max_denominator=20))


@given(a=rationals, b=rationals)
def test_rational_arithmetic_never_gives_a_float(a, b):
    results = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b)]
    if a:
        inverse = QQ.inv(a)
        assert QQ.mul(inverse, a) == 1
        results.append(inverse)
    assert not any(isinstance(r, float) for r in results)


def test_integral_coefficient_int_or_fraction_is_one_polynomial():
    amb = Ambient(("x",), QQ, DEGREVLEX)
    as_int = Poly(amb, {(1,): 3, (0,): Fraction(1, 2)})
    as_fraction = Poly(amb, {(1,): Fraction(3), (0,): Fraction(1, 2)})
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert str(as_int) == str(as_fraction) == "3*x + 1/2"


@pytest.mark.parametrize("field, pool", [
    (QQ, (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3)),
    (PrimeField(2), (0, 1)),
    (PrimeField(5), (0, 1, 2, 3, 4)),
    (PrimeField(7), (0, 1, 2, 3, 4, 5, 6)),
    (PrimeField(11), (8, 9, 10, 0, 1, 2, 3)),
], ids=["Q", "F2", "F5", "F7", "F11"])
def test_sample_pools_are_pinned_and_built_once(field, pool):
    # every random draw indexes this pool, so a reordered pool re-draws
    # every law case
    sample = field.elements_sample()
    assert sample == pool
    assert [type(c) for c in sample] == [type(c) for c in pool]
    assert field.elements_sample() is sample
