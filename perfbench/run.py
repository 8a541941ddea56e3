"""kcorr benchmark: seeded closed-loop workloads with output gates.

Usage, from the repository root:

    python3 perfbench/run.py --workload laws|chain|session --seed N \
        --seconds S --trace 0|1

One client runs whole cycles of ops until ``--seconds`` have passed and at
least ``MIN_OPS`` ops are done, so the slow percentile has ten samples
beyond it.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same untraced loop, then a fixed number of traced cycles, writes
the span dump to ``.bench_out/`` and prints the per-layer metrics.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The program is imported from ``src/`` of the checkout the
script sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 110
SETUP_REPEATS = 5


def percentile(values, q):
    """The q-th percentile (q in 1..99) with ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100)[q - 1]


def timed_loop(workload, seconds, tracer=None, cycles=None):
    """Run whole cycles; returns their segments (seconds, probe, ops).

    Untraced: until ``seconds`` have passed and ``MIN_OPS`` ops are done.
    Traced: exactly ``cycles`` cycles, so the counts repeat for a seed.
    """
    segments = []
    start = perf_counter()
    cycle = 0
    while True:
        segments += workload.run_cycle(cycle, tracer)
        cycle += 1
        if cycles is not None:
            if cycle >= cycles:
                break
        elif (perf_counter() - start >= seconds
              and sum(len(ops) for _, _, ops in segments) >= MIN_OPS):
            break
    return segments


def scaled(segments, reference):
    """Per-op ms and ops/s at the host speed ``reference`` (probe seconds).

    The host is shared: a fixed pure-Python loop runs up to half again
    slower for seconds to minutes at a time.  Each segment is scaled by
    reference / (its own probe), so figures from runs that caught the slow
    state stay comparable.
    """
    latencies = [ms * reference / probe
                 for _, probe, ops in segments for ms, _ in ops]
    busy = sum(seconds * reference / probe for seconds, probe, _ in segments)
    return latencies, len(latencies) / busy


def import_seconds():
    """Start-up plus ``import kcorr`` in a fresh interpreter."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import kcorr, kcorr.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    return perf_counter() - start


def peak_rss_mb(workload_name):
    who = resource.RUSAGE_CHILDREN if workload_name == "session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def expected_digest(workload, seed):
    path = HERE / "digests" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<48} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("laws", "chain", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kcorr" / "__init__.py").is_file():
        print(f"error: no kcorr sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)   # the build: bytecode, untimed

    sys.path.insert(0, str(SRC))
    import kcorr
    if Path(kcorr.__file__).resolve().parent != (SRC / "kcorr").resolve():
        print(f"error: imported kcorr from {kcorr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer as tracer_mod
    from workloads import WORKLOADS, op_results, speed_probe

    workload = WORKLOADS[args.workload](args.seed, OUT)
    setups = []
    for _ in range(SETUP_REPEATS):
        probe = speed_probe()
        start = perf_counter()
        workload.setup()
        generated = perf_counter() - start
        setups.append((import_seconds() + generated, probe))

    segments = timed_loop(workload, args.seconds)
    ops = op_results(segments)
    # The host's fast state: the 10th percentile of this run's probes.
    reference = statistics.quantiles([p for _, p, _ in segments], n=10)[0]
    latencies, ops_per_s = scaled(segments, reference)
    setup_s = statistics.median(t * reference / p for t, p in setups)
    traced_ops = []
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            traced = timed_loop(workload, args.seconds, tracer,
                                cycles=workload.TRACE_CYCLES)
        finally:
            tracer.uninstall()
        traced_ops = op_results(traced)
    problems = workload.gate()
    expected = expected_digest(args.workload, args.seed)
    if expected is None:
        print(f"note: no recorded digest for seed {args.seed}; "
              f"gates without the digest comparison")
    elif expected != workload.digest:
        problems.append(f"output digest {workload.digest} != recorded {expected}")

    attempted = len(ops) + len(traced_ops)
    failed = sum(1 for _, ok in ops + traced_ops if not ok)
    correct = failed == 0 and not problems
    for problem in problems:
        print(f"gate: {problem}")

    if args.trace:
        summary = tracer.summary()
        if args.workload == "session":
            summary = tracer_mod.merge_summaries(workload.summaries)
        overhead = ops_per_s / scaled(traced, reference)[1]
        metrics = tracer_mod.layer_metrics(
            summary, getattr(workload, "case_ms", {}),
            getattr(workload, "startup_s", []), overhead)
        if summary["debug_on"]:
            correct = False
            print(f"gate: debug validation on in {summary['debug_on']} commands")
        dump = OUT / f"spans-{args.workload}-{args.seed}.json"
        dump_data = tracer.dump()
        if args.workload == "session":
            dump_data = {"children": [str(p) for p in sorted(workload.trace_dir.glob("*.json"))]}
        tracer_mod.write_json(dump, {"workload": args.workload, "seed": args.seed,
                                     "summary": summary, **dump_data})
        print(f"span dump: {dump.relative_to(ROOT)}")
        print_table(f"per-layer metrics ({args.workload}, seed {args.seed}, "
                    f"{len(traced_ops)} traced ops)",
                    [(k, v["value"], v["unit"]) for k, v in metrics.items()])
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_ms.p50": {"value": statistics.median(latencies), "unit": "ms"},
            "op_ms.p90": {"value": percentile(latencies, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(args.workload), "unit": "MB"},
        }
        raw = [ms for ms, _ in ops]
        wall = sum(seconds for seconds, _, _ in segments)
        rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
        rows[4:4] = [("failed_ratio", failed / attempted, "ratio"),
                     ("unscaled ops_per_s", len(ops) / wall, "1/s"),
                     ("unscaled op_ms.p50", statistics.median(raw), "ms"),
                     ("unscaled op_ms.p90", percentile(raw, 90), "ms"),
                     ("probe reference (p10)", reference * 1000.0, "ms"),
                     ("probe median", statistics.median(
                         p for _, p, _ in segments) * 1000.0, "ms")]
        print_table(f"end-to-end metrics ({args.workload}, seed {args.seed}, "
                    f"{len(ops)} ops in {wall:.1f} s)", rows)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
