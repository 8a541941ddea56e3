"""Tests of the benchmark itself: seeded inputs, tracer wiring, release mode.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import sessiongen  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from kcorr import config  # noqa: E402
from kcorr.session import format_corr_block, format_matrix  # noqa: E402
from workloads import Chain, Laws, Session, op_results  # noqa: E402


def small(workload):
    """Shrink a workload's pool so one traced cycle stays quick."""
    if isinstance(workload, Laws):
        workload.CASES = 1
    elif isinstance(workload, Chain):
        workload.chains = workload.chains[:2]
    else:
        workload.paths = workload.paths[:2]
    return workload


def chain_inputs(seed, tmp_path):
    workload = Chain(seed, tmp_path)
    workload.setup()
    return [format_corr_block("O", o) + format_matrix(m.mat)
            for objs, mors in workload.chains for o, m in zip(objs, mors)]


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    assert sessiongen.generate_pool(3) == sessiongen.generate_pool(3)
    assert sessiongen.generate_pool(3) != sessiongen.generate_pool(4)
    assert chain_inputs(3, tmp_path) == chain_inputs(3, tmp_path)
    assert chain_inputs(3, tmp_path) != chain_inputs(4, tmp_path)
    laws = [Laws(s, tmp_path) for s in (3, 3, 4)]
    rounds = [[w.round_seed(c) for c in range(4)] for w in laws]
    assert rounds[0] == rounds[1] and rounds[0] != rounds[2]


def test_session_pool_covers_catalogue_and_alternates_fields():
    entries = sessiongen.pool_entries()
    assert [f.name for f, _ in entries[:4]] == ["F5", "Q", "F5", "Q"]
    assert {n for _, n in entries} == set(sessiongen.CATALOGUE)
    assert all(f.name == "F5" for f, n in entries if n in sessiongen.PRIME_ONLY)


def traced_metrics(workload):
    workload.setup()
    small(workload)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        ops = op_results(workload.run_cycle(0, tracer))
    finally:
        tracer.uninstall()
    assert ops and all(ok for _, ok in ops)
    summary = tracer.summary()
    if isinstance(workload, Session):
        summary = tracer_mod.merge_summaries(workload.summaries)
    metrics = tracer_mod.layer_metrics(summary, {}, getattr(workload, "startup_s", []),
                                       1.0)
    return {name: m["value"] for name, m in metrics.items()}, summary


KERNEL = ["groebner.normal_form.calls", "groebner.basis_eq.calls",
          "matrix.mul.calls", "matrix.mul.entry_products", "matrix.init.calls",
          "poly.mul.calls", "corrcat.make_correspondence.calls",
          "corrcat.corner_eval.calls", "pairing.compose_objects.calls"]
FUNCTORS = ["functors.pullback.calls", "functors.pushforward.calls",
            "functors.box.calls", "functors.torus.calls", "bimod.calls"]
FRONT_END = ["parser.parse_poly.calls", "session.parse_session.busy_s",
             "cli.startup_s"] + [f"cli.command.{w}.busy_s"
                                 for w in tracer_mod.COMMAND_WORDS if w != "laws"]
K0 = ["k0.rank.calls", "k0.certificate.calls"]

EXERCISED = {
    "laws": KERNEL + FUNCTORS + ["groebner.buchberger.calls", "randomgen.calls",
                                 "pairing.compose_morphisms.calls",
                                 "corrcat.make_corr_morphism.calls",
                                 "varieties.construct.calls",
                                 "varieties.product.calls",
                                 "varieties.make_morphism.calls",
                                 "parser.parse_poly.calls"],
    "chain": KERNEL + ["pairing.compose_morphisms.calls",
                       "corrcat.make_corr_morphism.calls"],
    "session": KERNEL + FUNCTORS + FRONT_END + K0 + [
        "groebner.buchberger.calls", "varieties.construct.calls",
        "varieties.product.calls", "varieties.make_morphism.calls"],
}
PREDICTED_ZERO = {
    "laws": K0 + ["session.parse_session.busy_s", "cli.startup_s"]
    + [f"cli.command.{w}.busy_s" for w in tracer_mod.COMMAND_WORDS],
    "chain": ["groebner.buchberger.calls", "randomgen.calls",
              "varieties.construct.calls", "varieties.product.calls"]
    + FUNCTORS + FRONT_END + K0,
    "session": ["randomgen.calls", "cli.command.laws.busy_s",
                "internal_law_violation.count"],
}


@pytest.mark.parametrize("cls", [Laws, Chain, Session], ids=lambda c: c.name)
def test_every_wrapper_sees_its_workload(cls, tmp_path):
    values, summary = traced_metrics(cls(5, tmp_path))
    missing = [m for m in EXERCISED[cls.name] if not values[m]]
    assert not missing, f"no calls recorded (stale binding?): {missing}"
    nonzero = {m: values[m] for m in PREDICTED_ZERO[cls.name] if values[m]}
    assert not nonzero, f"predicted zero: {nonzero}"
    assert values["internal_law_violation.count"] == 0
    assert summary["debug_on"] == 0


def test_laws_useful_ratio_well_below_one(tmp_path):
    values, _ = traced_metrics(Laws(5, tmp_path))
    assert values["groebner.buchberger.useful_ratio"] < 0.2


def test_release_mode_in_timed_region_and_leak_detected(tmp_path):
    chain = Chain(6, tmp_path)
    chain.setup()
    small(chain)
    chain.run_cycle(0)
    assert chain.debug_leaks == 0
    with config.debug_validation():
        chain.run_cycle(1)
    assert chain.debug_leaks == len(chain.chains)

    laws = small(Laws(6, tmp_path))
    laws.run_cycle(0)
    assert laws.debug_leaks == 0 and not laws.gate()


def test_tracer_uninstall_restores_every_binding():
    import kcorr.cli
    from kcorr import pairing, varieties
    from kcorr.exactalg import Matrix
    before = (pairing.compose_objects, varieties.buchberger, Matrix.__mul__,
              dict(kcorr.cli.SESSION_COMMANDS))
    tracer = tracer_mod.Tracer()
    tracer.install()
    assert varieties.buchberger is not before[1]
    tracer.uninstall()
    after = (pairing.compose_objects, varieties.buchberger, Matrix.__mul__,
             dict(kcorr.cli.SESSION_COMMANDS))
    assert after == before


def test_session_gate_reparses_corr_blocks(tmp_path):
    session = Session(7, tmp_path)
    session.setup()
    small(session)
    assert all(ok for _, ok in op_results(session.run_cycle(0)))
    assert session.gate() == []
    assert session.skipped_products > 0     # box and rho-inv print product targets


def test_seeded_generation_does_not_touch_global_random():
    state = random.getstate()
    sessiongen.generate_pool(1)
    assert random.getstate() == state


def test_benchmark_json_lists_what_the_runs_print():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracer_mod.per_layer_spec()
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "ops_per_s", "op_ms.p50", "op_ms.p90", "peak_rss_mb"]
    assert {w["name"] for w in spec["workloads"]} == {"laws", "chain", "session"}
