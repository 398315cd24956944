"""Check every pinned output: ``python3 .github/check_pins.py``, no arguments.

``BENCH`` pins the result line of 5-s ``perfbench/run.py`` runs, and
``REFERENCE`` the sha256 of each file ``BUILDS`` writes into a temporary
directory; this script writes nothing into the checkout. Every pin is
checked even after one fails. Each failure prints one line with the
expected and the actual value (copy it into the table to re-pin); any
failure exits 1.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1")

# (workload, seed, trace, output_sha256 or None, {traced metric: count}), correct with no failed operation
BENCH = [
    # untraced operation 0 takes the default CI test's batched path and sets
    # the sha256; each traced operation, one query at a time through the
    # tracer, must write the same bytes. Of the 22,745 CI queries, 13,357
    # distinct, 7,309 go to G^2 and 6,048 to Fisher-z: the per-view memo runs
    # a kernel once per distinct query, so a bypassed or wrongly keyed memo
    # moves a kernel count, and a broken kind rule moves the split
    ("wide_step1", 1, 1, "3dc5d678d0d6d9b358ce215ee966242a62f48504be07075efe772b732d084360",
     {"discovery.ci_tests": 22745, "stats.g2_calls": 7309, "stats.fisher_z_calls": 6048}),
    # another column order hands the CI test other chunks, lone G^2 sets among
    # them; every chunk goes through the batch kernels
    ("wide_step1", 2, 0, "00823596eb95810e290ed9193cf369ab6b44e4e5053e51fa6b9ace0beadfe37a", {}),
    # traced, every operation cross-checks the fit_tree calls against
    # k(trials+1)+1; the node count pins the shape of every tree grown
    ("cohort_ref", 1, 1, "952050b177b0e17df5b350d67fbc0cc4f34fac10649f1636c4e98df761d07b92",
     {"tree.fit_tree_calls": 511, "tree.nodes": 11807}),
    # the worst of seed 711's 50 trials misclassifies 0.3700000000000001, a
    # rounding error above a histogram bin edge that a histogram must keep
    ("cohort_ref", 711, 0, None, {}),
    # the wide table through steps 2 and 3 as well: joint search, effects,
    # bivariate tests, tree, CV and permutation trials
    ("wide_fci", 1, 0, "8597b439b157be76b3798bd090eb1bddccbf04993744d85bf2ad4fa45932db04", {}),
    # traced CI calls must equal tests_run, and the skeleton and colliders
    # match the DAG; no output file, so no sha
    ("oracle_fci", 1, 1, None, {}),
]


def prior(ref: Path) -> None:
    pairs = {"forbidden": [["POTASSIUM", "OUTCOME"]], "required": [["AGE", "OUTCOME"], ["CREATININE", "BUN"]]}
    (ref / "prior.json").write_text(json.dumps(pairs))


def wide_table(ref: Path) -> None:
    from causaltab.data import Dataset
    from wide_table import make_wide_table

    Dataset(*make_wide_table(1)).write_csv(ref / "wide_table.csv")


def binned_cohort(ref: Path) -> None:
    """AGE, PF and BUN binned into 4-, 5- and 5-level ordinal prior_diseases columns."""
    import numpy as np

    from causaltab.data import ColumnSchema, Dataset, load_csv

    ds = load_csv(ref / "cohort.csv", ref / "cohort.schema.json")
    schema, coded = list(ds.schema), {c: ds.coded(c) for c in ds.column_names}
    for name, k in (("AGE", 4), ("PF", 5), ("BUN", 5)):
        cuts = np.nanquantile(coded[name], np.arange(1, k) / k)
        coded[name + "_BIN"] = np.where(np.isnan(coded[name]), np.nan, np.searchsorted(cuts, coded[name]))
        levels = tuple(str(i) for i in range(k))
        schema.insert(-1, ColumnSchema(name + "_BIN", "ordinal", "prior_diseases", levels=levels))
    binned = Dataset(schema, coded)
    binned.write_csv(ref / "binned.csv")
    binned.write_schema(ref / "binned.schema.json")


RUN = ["run", "--seed", "1", "--tree-max-depth", "4", "--cv-folds", "10", "--permutation-trials", "50"]
COHORT = ["--data", "cohort.csv", "--schema", "cohort.schema.json"]
# causaltab argv, run in the directory, or functions of it: the seed-1 and
# seed-4 cohorts and their runs; the seed-1 run with pd-sep under a prior
# (the only searches here that read one) and with an overridden outcome of
# three codes; the wide table; and a pd-sep step 1 on the binned cohort (the
# only G^2 tables here with columns of more than 3 levels). A moved byte is
# a change of content, which a change must declare
BUILDS = [
    ["synth", "--seed", "1", "--out", "."],
    [*RUN, *COHORT, "--out", "run"],
    prior,
    [*RUN, *COHORT, "--possible-dsep", "--prior", "prior.json", "--out", "prior"],
    [*RUN, *COHORT, "--outcome", "SMOKE_EXYN", "--out", "smoke"],
    ["synth", "--seed", "4", "--out", "seed4"],
    [*RUN, "--data", "seed4/cohort.csv", "--schema", "seed4/cohort.schema.json", "--out", "seed4/run"],
    wide_table,
    binned_cohort,
    ["step1", "--data", "binned.csv", "--schema", "binned.schema.json", "--possible-dsep", "--out", "binned"],
]
REFERENCE = {
    "cohort.csv": "a68d92a087fe2da719500e7e3c4ea806993a289fa9144d4d5a3e942a38114027",
    "cohort.schema.json": "258453347c0396bac5ec56a1b067990662e8b03f30f2116d3895efc3670e4e92",
    "truth_graph.json": "4c132ce728c461da3efeea46aeae8d9ea8df4086e33f9ab063504a17959d8bdd",
    "run/report.json": "952050b177b0e17df5b350d67fbc0cc4f34fac10649f1636c4e98df761d07b92",
    "prior/report.json": "de719d113231df24c51cec9be3695782317a944b00d2e14cdd0735cd36dafc3a",
    "smoke/report.json": "0f98df5d8df103cad6fd1f99b96076aff2d610f91380f4d294908c1419b3f2be",
    "seed4/cohort.csv": "74846dad8d919559b9a319a6cc88c03e7113b0c593bf438c370e6efdd8f99eb3",
    "seed4/run/report.json": "53b15a9f0fe3d131c9c6ae66260a4a2432ea719d3d2616f7c2067192026fc1f6",
    "wide_table.csv": "d81481312a0283498ab767044e10380c6dcf099e75d974fec474b3148a289283",
    "binned/step1.json": "807dfd40754021c1213cb0a7da5cf3925e7c58b65f1d027034dc67cd6010d2a4",
}


def check_bench(workload: str, seed: int, trace: int, sha: str | None, counts: dict) -> list[str]:
    cmd = [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, env=ENV, stdout=subprocess.PIPE, text=True)
    label = f"{workload} seed {seed} trace {trace}"
    if proc.returncode:
        return [f"{label}: perfbench/run.py exit status is {proc.returncode}, expected 0"]
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    details, metrics = details["details"], result["metrics"]
    actual = {name: round(metrics[name]["value"]) if name in metrics else None for name in counts}
    actual.update(correct=result["correct"], failed=result["failed"],
                  output_sha256=details["workload_info"].get("output_sha256"))
    why = {"correct": details["check_problems"][:1] or details["bench_errors"][:1],
           "failed": list(details["failures"])}
    expected = {"correct": True, "failed": 0, **({"output_sha256": sha} if sha else {}), **counts}
    return [f"{label}: {name} is {actual[name]}, expected {n}" + (f": {why[name]}" if name in why else "")
            for name, n in expected.items() if actual[name] != n]


def build(step, ref: Path) -> str | None:
    """Run one entry of ``BUILDS`` in ``ref``; a failure message, or None."""
    if callable(step):
        try:
            step(ref)
        except Exception as exc:  # any error of a build function is its failure
            return f"build {step.__name__}() raised {exc!r}, expected no error"
        return None
    proc = subprocess.run([sys.executable, "-m", "causaltab.cli", *step], cwd=ref, env=ENV,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode:
        last = proc.stderr.strip().splitlines()[-1:]
        return f"build causaltab {' '.join(step)}: exit status is {proc.returncode}, expected 0: {last}"
    return None


def main() -> int:
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]  # for the build functions
    sys.dont_write_bytecode = True
    failures = [failure for pin in BENCH for failure in check_bench(*pin)]
    with tempfile.TemporaryDirectory() as tmp:
        failures += filter(None, (build(step, Path(tmp)) for step in BUILDS))
        for name, sha in REFERENCE.items():
            path = Path(tmp, name)
            actual = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
            if actual != sha:
                failures.append(f"reference {name}: sha256 is {actual}, expected {sha}")
    for line in failures:
        print(line, file=sys.stderr)
    print(f"checked {len(BENCH) + len(REFERENCE)} pins: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
