"""One workload in one fresh process: set up, run ops for a fixed time, report.

Started by ``run.py``; not meant to be run by hand. It writes one JSON
result file. ``--setup-only`` stops once the inputs are ready, so that
``run.py`` can time set-up in several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _failure_site(exc: BaseException) -> str:
    """Innermost frame inside causaltab, as 'module.py:line in function'."""
    frames = traceback.extract_tb(exc.__traceback__)
    inside = [f for f in frames if str(SRC) in f.filename] or frames
    f = inside[-1]
    return f"{Path(f.filename).name}:{f.lineno} in {f.name}"


def _host() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))  # this script's directory is on the path already
    # the pipeline warns once per bidirected edge it adjusts over; the
    # message is not what is measured and would flood the run's stderr
    warnings.filterwarnings("ignore", message="edge .* carries arrowheads at both ends")
    import causaltab

    if not Path(causaltab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported causaltab from {causaltab.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    ready = time.monotonic()
    result: dict = {"ready": ready, "info": workload.info}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    import tracing

    tracer = tracing.Tracer()
    ops: list[dict] = []
    failures: dict[str, dict] = {}
    problems: list[str] = []
    bench_errors: list[str] = []
    deadline = ready + args.seconds
    min_ops = 2 if args.trace else 1
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        if traced:
            tracing.install(tracer)
            before = {k: tracer.calls(k) for k in ("discovery.ci_test", "tree.fit_tree")}
        output = None
        start_cpu = _cpu_seconds()
        start = time.perf_counter()
        try:
            output = workload.op(i)
        except Exception as exc:  # a failed op is counted and reported, not fatal
            site = _failure_site(exc)
            key = f"{type(exc).__name__} at {site}"
            entry = failures.setdefault(
                key, {"type": type(exc).__name__, "where": site, "message": str(exc)[:300], "ops": 0}
            )
            entry["ops"] += 1
        finally:
            seconds = time.perf_counter() - start
            cpu = _cpu_seconds() - start_cpu
            if traced:
                tracer.uninstall()
        ok = output is not None
        if ok:
            found = workload.check(output, i)
            if found:
                ok = False
                problems.extend(found)
            if traced:
                delta = {k: tracer.calls(k) - v for k, v in before.items()}
                bench_errors.extend(workload.cross_check(output, delta))
        ops.append({"seconds": seconds, "cpu_s": cpu, "ok": ok, "traced": traced})
        i += 1
        mean_op = (time.monotonic() - ready) / i
        if i >= min_ops and time.monotonic() + mean_op > deadline:
            break

    result.update(
        ops=ops,
        failures=list(failures.values()),
        check_problems=problems[:5],
        bench_errors=bench_errors[:5],
        peak_rss_mb=_peak_rss_mb(),
        host=_host(),
    )
    if args.trace:
        traced_ops = sum(1 for op in ops if op["traced"])
        result["layers"] = tracing.layer_metrics(tracer, traced_ops)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
