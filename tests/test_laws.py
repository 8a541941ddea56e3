import json
from pathlib import Path

import pytest

from mutants import (forgetful_aut_morphism_from_torus,
                     reversed_interleave_permutation, shuffled_flatten)
from kcorr import functors, laws, pairing
from kcorr.corrcat import CorrMorphism, CorrObject
from kcorr.exactalg import PrimeField, QQ
from kcorr.laws import LAW_NAMES, law_suite
from kcorr.session import parse_session


def test_fourteen_families():
    assert len(LAW_NAMES) == 14


def test_small_run_passes_both_fields():
    report = law_suite(seed=7, cases=3)
    assert report.ok
    assert report.exit_code == 0
    assert {r.field for r in report.results} == {"Q", "F5"}
    assert len(report.results) == 28


def test_law_suite_computes_bases_only_when_read(monkeypatch):
    import kcorr.varieties
    calls = []
    true_buchberger = kcorr.varieties.buchberger
    monkeypatch.setattr(kcorr.varieties, "buchberger",
                        lambda *args: calls.append(args) or true_buchberger(*args))
    assert law_suite(seed=42, cases=30).ok
    # 1,132 runs from a fresh interpreter; 2,876 when every product and torus
    # computed its basis as it was built
    assert len(calls) <= 1200


def test_law_suite_checks_few_candidates_exactly(monkeypatch):
    from kcorr import randomgen
    calls = []
    true_check = randomgen.broken_relation
    monkeypatch.setattr(randomgen, "broken_relation",
                        lambda *args: calls.append(args) or true_check(*args))
    assert law_suite(seed=42, cases=50).ok
    # 1,154 from a fresh interpreter; 12,114 when every candidate point
    # reached the exact check, before the pointwise pre-check
    assert len(calls) <= 1200


def test_seed_7_report_and_draws_match_golden(monkeypatch):
    # a passing report does not show the draws, so every random polynomial
    # and sampled point is pinned too
    from kcorr import randomgen
    draws = []
    true_poly, true_point = randomgen.random_poly, randomgen.sample_point

    def poly(*args, **kwargs):
        f = true_poly(*args, **kwargs)
        draws.append(f"poly {f}")
        return f

    def sample(x, y, *args, **kwargs):
        coords = true_point(x, y, *args, **kwargs)
        draws.append(f"point {x.name}->{y.name} " + ", ".join(map(str, coords)))
        return coords

    monkeypatch.setattr(randomgen, "random_poly", poly)
    monkeypatch.setattr(randomgen, "sample_point", sample)
    report = law_suite(seed=7, cases=3).to_text()
    data = Path(__file__).parent / "data"
    assert "".join(line for line in report.splitlines(True)
                   if not line.startswith("wall-time:")) == \
        (data / "laws_seed7.txt").read_text()
    assert "\n".join(draws) + "\n" == (data / "laws_seed7_draws.txt").read_text()


def test_report_is_deterministic_modulo_wall_time():
    a = law_suite(seed=11, cases=2)
    b = law_suite(seed=11, cases=2)
    strip = lambda rep: rep.to_text().rsplit("wall-time", 1)[0]
    assert strip(a) == strip(b)
    ja = a.to_json_lines().splitlines()
    jb = b.to_json_lines().splitlines()
    assert ja[:-1] == jb[:-1]
    assert "wall_time" in ja[-1]


def test_json_lines_shape():
    report = law_suite(seed=3, cases=1, fields=(QQ,), laws=("box-graph",))
    lines = report.to_json_lines().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["law"] == "box-graph" and first["failures"] == []
    assert "summary" in json.loads(lines[1])


def test_mutated_flatten_caught_by_interchange_within_25_cases(monkeypatch):
    monkeypatch.setattr(pairing, "flatten_blocks", shuffled_flatten)
    report = law_suite(seed=42, cases=25, fields=(PrimeField(5),),
                       laws=("pairing-bifunctor",))
    assert not report.ok
    checks = {f.check for f in report.failures}
    assert "interchange" in checks
    first_interchange = min(f.case_index for f in report.failures
                            if f.check == "interchange")
    assert first_interchange < 25


def test_mutated_flatten_reports_every_failing_check_of_a_case(monkeypatch):
    monkeypatch.setattr(pairing, "flatten_blocks", shuffled_flatten)
    report = law_suite(seed=42, cases=25, fields=(PrimeField(5),),
                       laws=("pairing-bifunctor",))
    case_8 = [f.check for f in report.failures if f.case_index == 8]
    assert case_8 == ["unit-object", "interchange"]
    assert f"failures={len(report.failures)}" in report.to_text()


def test_json_lines_report_of_failing_checks(monkeypatch):
    monkeypatch.setattr(pairing, "flatten_blocks", shuffled_flatten)
    report = law_suite(seed=42, cases=25, fields=(PrimeField(5),),
                       laws=("pairing-bifunctor",))
    *results, summary = map(json.loads, report.to_json_lines().splitlines())
    records = [f for r in results for f in r["failures"]]
    assert records
    for record in records:
        assert set(record) == {"law", "check", "field", "case", "seed",
                               "message", "inputs"}
        assert (record["law"], record["field"], record["seed"]) == \
            ("pairing-bifunctor", "F5", 42)
        assert record["inputs"].startswith("field Fp 5")
    assert summary["summary"]["failures"] == len(records)


def test_case_setup_error_is_listed_after_the_failed_checks(monkeypatch):
    def stub_law(ctx, rng):
        ctx.check("passes", lambda: True)
        ctx.check("fails", lambda: False, obj=ctx.rand_obj(rng))
        ctx.check("raises", lambda: 1 // 0)
        raise RuntimeError("generator blew up")

    monkeypatch.setattr(laws, "LAW_FAMILIES", (("stub", stub_law),))
    report = law_suite(seed=1, cases=2, fields=(QQ,))
    assert [(f.case_index, f.check) for f in report.failures] == [
        (0, "fails"), (0, "raises"), (0, "case-setup"),
        (1, "fails"), (1, "raises"), (1, "case-setup")]
    fails, raises, setup = report.failures[:3]
    assert fails.message == "exact identity failed"
    assert fails.inputs.startswith("field Q") and "corr obj" in fails.inputs
    assert raises.message.startswith("ZeroDivisionError")
    assert setup.message == "RuntimeError: generator blew up"
    assert setup.inputs == ""
    assert "FAIL stub" in report.to_text() and "failures=6" in report.to_text()


def test_failure_reports_carry_reproduction_data(monkeypatch):
    monkeypatch.setattr(pairing, "flatten_blocks", shuffled_flatten)
    report = law_suite(seed=42, cases=10, fields=(PrimeField(5),),
                       laws=("pairing-bifunctor",))
    assert report.failures
    failure = report.failures[0]
    assert failure.seed == 42
    assert failure.law == "pairing-bifunctor"
    text = report.to_text()
    assert failure.inputs.startswith("field Fp 5")
    assert "corr" in failure.inputs
    assert "--- failure:" in text


def test_failure_inputs_are_runnable_sessions(monkeypatch):
    cases = []
    original = laws.serialize_case

    def recording(inputs, field):
        text = original(inputs, field)
        cases.append((inputs, text))
        return text

    monkeypatch.setattr(pairing, "flatten_blocks", shuffled_flatten)
    monkeypatch.setattr(laws, "serialize_case", recording)
    report = law_suite(seed=42, cases=25, fields=(PrimeField(5),),
                       laws=("pairing-bifunctor",))
    assert [f.inputs for f in report.failures] == [text for _, text in cases]
    assert any(isinstance(v, CorrMorphism)
               for inputs, _ in cases for v in inputs.values())
    for inputs, text in cases:
        s = parse_session(text)
        assert s.field == PrimeField(5)
        for name, value in inputs.items():
            if isinstance(value, CorrObject):
                assert s.corrs[name] == value
            else:
                assert s.morphisms[name] == value


def test_wrong_sum_permutation_caught_by_sum_certificate(monkeypatch):
    # the swapped blocks keep the idempotents (verify_iso passes whenever the
    # two units agree) but no longer intertwine the generator images
    monkeypatch.setattr(pairing, "_interleave_permutation",
                        reversed_interleave_permutation)
    report = law_suite(seed=42, cases=10, fields=(PrimeField(5),),
                       laws=("pairing-bifunctor",))
    assert {f.check for f in report.failures} == {"sum-certificate-inner"}
    assert any("intertwining fails" in f.message for f in report.failures)


def test_corrupted_transport_theta_caught_in_release_mode(monkeypatch):
    # the split morphism's target forgets its torus action: a valid
    # automorphism object that the underlying morphism does not intertwine
    monkeypatch.setattr(functors, "aut_morphism_from_torus",
                        forgetful_aut_morphism_from_torus)
    report = law_suite(seed=42, cases=10, fields=(PrimeField(5), QQ),
                       laws=("torus-isomorphism",))
    assert {f.check for f in report.failures} == {"morphism-transport"}


def test_cases_must_be_positive():
    from kcorr.errors import KcorrError
    with pytest.raises(KcorrError):
        law_suite(seed=1, cases=0)


@pytest.mark.parametrize("p", [11, 13])
def test_prime_fields_above_seven_pass(p):
    report = law_suite(seed=1, cases=10, fields=(PrimeField(p),))
    assert report.ok, report.to_text()
