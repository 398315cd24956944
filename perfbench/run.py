"""causaltab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload cohort_ref --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory. Every workload runs in fresh worker processes, one at
a time (no pool, one BLAS thread), so that set-up includes the imports
and first-call caches a user pays:

* ``SETUP_PROBES`` workers only set up, for the median set-up time;
* one worker sets up, then repeats the workload's operation until the
  measuring time is used up.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The line before
it holds the details a reader needs to trust the numbers: host facts,
configuration, sample counts, failures and the output's sha256.

Workloads (see README.md for why each exists): cohort_ref and wide_step1,
which BENCHMARK.json lists, and oracle_fci and wide_fci, which it leaves
out (oracle_fci is too sensitive to host load, wide_fci fails).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
#: Every worker together must end well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0


def _worker(args, workdir: Path, result: Path, extra: list[str], timeout: float) -> tuple[float, dict]:
    """Start one worker, wait for it; (monotonic start time, its result)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), "--result", str(result), *extra,
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return start, json.loads(result.read_text(encoding="utf-8"))


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "causaltab" / "__init__.py").is_file():
        print(f"error: no causaltab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    began = time.monotonic()
    scratch = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for k in range(SETUP_PROBES):
            start, probe = _worker(
                args, scratch / f"probe{k}", scratch / f"probe{k}.json", ["--setup-only"],
                RUN_LIMIT_S - (time.monotonic() - began),
            )
            setups.append(probe["ready"] - start)
        start, res = _worker(
            args, scratch / "main", scratch / "main.json",
            ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            RUN_LIMIT_S - (time.monotonic() - began),
        )
        setups.append(res["ready"] - start)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    ops = res["ops"]
    done = [op for op in ops if op["ok"] and not op["traced"]]
    traced = [op for op in ops if op["ok"] and op["traced"]]
    failed = sum(1 for op in ops if not op["ok"])
    correct = not res["check_problems"] and not res["bench_errors"]
    for message in res["bench_errors"]:
        print(f"benchmark error: {message}", file=sys.stderr)

    if args.trace:
        values = dict(res["layers"])
        values["synth.make_clinical_synth_s"] = res["info"].get("make_clinical_synth_s", 0.0)
        values["trace.overhead_s"] = (
            statistics.median(op["seconds"] for op in traced)
            - statistics.median(op["seconds"] for op in done)
            if done and traced else 0.0
        )
        values["failed_frac"] = failed / len(ops)
    else:
        values = {"setup_s": statistics.median(setups), "peak_rss_mb": res["peak_rss_mb"]}
        if done:
            seconds = [op["seconds"] for op in done]
            values["analysis_s"] = statistics.median(seconds)
            values["analysis_s_p90"] = _quantile(seconds, 90)
            values["analysis_cpu_s"] = statistics.median(op["cpu_s"] for op in done)
    if set(values) - set(units):
        print(f"error: metrics missing from BENCHMARK.json: {sorted(set(values) - set(units))}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": res["host"],
        "workload_info": res["info"],
        "setup_samples_s": setups,
        "ops_attempted": len(ops),
        "ops_timed": len(done),
        "failed_frac": failed / len(ops),
        "failures": res["failures"],
        "check_problems": res["check_problems"],
        "bench_errors": res["bench_errors"],
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
