"""Run one benchmark workload for 5 s and check its result against pinned values.

    python3 .github/check_bench.py --workload wide_step1 --seed 1 --trace 1 \
        --sha 3dc5... --count discovery.ci_tests=22745

perfbench/run.py exits 0 on a failed or incorrect operation, so this
script reads its last two lines (details, then result) and exits non-zero
with one message per mismatch: ``correct`` false, ``failed`` above 0, an
``output_sha256`` other than ``--sha``, or a metric, rounded to an
integer, other than its ``--count NAME=N``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--sha", help="expected output_sha256")
    parser.add_argument("--count", action="append", default=[], metavar="NAME=N")
    args = parser.parse_args()
    pins = {name: int(n) for name, n in (c.split("=") for c in args.count)}

    label = f"{args.workload} seed {args.seed} trace {args.trace}"
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "5", "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=Path(__file__).resolve().parents[1], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"{label}: perfbench/run.py exited with status {proc.returncode}", file=sys.stderr)
        return 1
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    details, metrics = details["details"], result["metrics"]
    sha = details["workload_info"].get("output_sha256")
    counts = {name: round(metrics[name]["value"]) if name in metrics else None for name in pins}
    print("correct", result["correct"], "failed", result["failed"], "output_sha256", sha)
    if counts:
        print(*(f"{name} {value}" for name, value in counts.items()))

    mismatches = []
    if not result["correct"]:
        mismatches.append(f"correct is false: {details['check_problems'][:1] or details['bench_errors'][:1]}")
    if result["failed"]:
        mismatches.append(f"failed is {result['failed']}, expected 0: {list(details['failures'])}")
    if args.sha and sha != args.sha:
        mismatches.append(f"output_sha256 is {sha}, expected {args.sha}")
    mismatches += [f"{name} is {counts[name]}, expected {n}" for name, n in pins.items() if counts[name] != n]
    for message in mismatches:
        print(f"{label}: {message}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
