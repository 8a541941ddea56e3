"""Record the output digests the benchmark's gates compare against.

Usage, from the repository root:

    python3 perfbench/record.py --workload laws|chain|session --seeds 0-63

For each seed, runs the workload's set-up, one cycle and its gate, and
stores the digest in ``perfbench/digests/<workload>.json``.  Re-record only when a
change is meant to alter outputs; a gain claimed against changed digests is
a change of outputs, not a speed-up.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, op_results  # noqa: E402


def digest_for(name, seed, out_dir):
    workload = WORKLOADS[name](seed, out_dir)
    workload.setup()
    ops = op_results(workload.run_cycle(0))
    problems = workload.gate()
    if problems or not all(ok for _, ok in ops):
        raise SystemExit(f"{name} seed {seed}: refusing to record a failing run: "
                         f"{problems}")
    return workload.digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    path = HERE / "digests" / f"{args.workload}.json"
    out_dir = HERE.parent / ".bench_out" / f"record-{args.workload}"
    digests = {}
    for seed in range(first, last + 1):
        digests[str(seed)] = digest_for(args.workload, seed, out_dir)
        print(args.workload, seed, digests[str(seed)], flush=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    table.update(digests)
    table = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
