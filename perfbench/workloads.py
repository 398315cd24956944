"""The benchmark's workloads: input generation, one operation, output checks.

Each workload builds its inputs from the seed in ``setup`` and runs one
user-visible operation per ``op`` call through causaltab's public entry
points. ``check`` returns the problems found in an operation's output,
and ``cross_check`` compares traced counters with the program's own
counts. Neither is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import shutil
import time
from pathlib import Path

#: Permutation trials per cohort_ref op. The reference protocol uses 1000
#: (about 50 s per analysis on a 2-CPU Xeon), which does not fit a run.
#: 50 keeps step 3 at over 95% of an op and gives a median over about 18
#: ops in a 50 s run, which rides out second-scale swings in host speed.
COHORT_TRIALS = 50
COHORT_FOLDS = 10
#: cohort_ref always analyses the reference cohort; the workload seed
#: drives the analysis (CV folds and permutation draws). Cohorts of other
#: seeds keep 5 to 8 tree features, which moves the cost of an analysis
#: by up to 1.9x between seeds and would swamp any regression bound.
COHORT_SEED = 1
WIDE_TRIALS = 5
ORACLE_SAMPLE_5 = 4000


def _cli(argv: list[str]) -> None:
    from causaltab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"causaltab {argv[0]} exited with status {status}")


class _TableWorkload:
    """A CSV + schema written once, then one ``causaltab`` command per op."""

    command = "run"
    output_file = "report.json"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.csv = workdir / "table.csv"
        self.schema = workdir / "table.schema.json"
        self.config = workdir / "config.json"
        self.first_bytes: bytes | None = None
        self.info: dict = {}

    def write_config(self, payload: dict) -> None:
        self.info["config"] = payload
        self.config.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")

    def op(self, i: int) -> bytes:
        out = self.workdir / f"out{i}"
        try:
            _cli([
                self.command,
                "--data", str(self.csv),
                "--schema", str(self.schema),
                "--config", str(self.config),
                "--out", str(out),
            ])
            return (out / self.output_file).read_bytes()
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check(self, raw: bytes, i: int) -> list[str]:
        problems = []
        if self.first_bytes is None:
            self.first_bytes = raw
            self.info["output_sha256"] = hashlib.sha256(raw).hexdigest()
        elif raw != self.first_bytes:
            problems.append(f"{self.output_file} bytes differ between ops of one run")
        problems.extend(self.check_content(json.loads(raw)))
        return problems

    def check_content(self, payload: dict) -> list[str]:
        return []

    @staticmethod
    def tests_run(payload: dict) -> int:
        step1 = payload.get("step1", payload)
        total = sum(c["tests_run"] for c in step1["per_category"])
        if "step2" in payload:
            total += payload["step2"]["tests_run"]
        return total

    def cross_check(self, raw: bytes, delta: dict) -> list[str]:
        payload = json.loads(raw)
        expected = self.tests_run(payload)
        if delta["discovery.ci_test"] != expected:
            return [f"traced CI tests {delta['discovery.ci_test']} != tests_run {expected}"]
        return []


class CohortRef(_TableWorkload):
    """The reference synthetic clinical cohort under the reference protocol."""

    def setup(self) -> None:
        from causaltab.synth import make_clinical_synth

        start = time.perf_counter()
        dataset, _truth = make_clinical_synth(COHORT_SEED)
        self.info["make_clinical_synth_s"] = time.perf_counter() - start
        dataset.write_csv(self.csv)
        dataset.write_schema(self.schema)
        self.write_config({
            "seed": self.seed,
            "tree_max_depth": 4,
            "cv_folds": COHORT_FOLDS,
            "permutation_trials": COHORT_TRIALS,
        })

    def check_content(self, payload: dict) -> list[str]:
        perm = payload["step3"].get("permutation")
        if perm is None:
            return ["report has no permutation baseline"]
        problems = []
        if perm["n_trials"] != COHORT_TRIALS:
            problems.append(f"n_trials {perm['n_trials']} != {COHORT_TRIALS}")
        hist_total = sum(row[2] for row in payload["step3"]["comparison"]["histogram"])
        if hist_total != COHORT_TRIALS:
            problems.append(f"histogram counts sum to {hist_total}, not {COHORT_TRIALS}")
        return problems

    def cross_check(self, raw: bytes, delta: dict) -> list[str]:
        problems = super().cross_check(raw, delta)
        fits = COHORT_FOLDS * (COHORT_TRIALS + 1) + 1
        if delta["tree.fit_tree"] != fits:
            problems.append(f"traced fit_tree calls {delta['tree.fit_tree']} != k(trials+1)+1 = {fits}")
        return problems


class WideFci(_TableWorkload):
    """The wide table through the full three-step analysis."""

    def setup(self) -> None:
        from causaltab.data import Dataset

        from wide_table import make_wide_table

        dataset = Dataset(*make_wide_table(self.seed))
        dataset.write_csv(self.csv)
        dataset.write_schema(self.schema)
        # at alpha 0.01 spurious edges between the table's blocks are rare;
        # each one merges two blocks' possible-d-sep sets and multiplies
        # the CI tests of that category
        self.write_config({
            "seed": self.seed,
            "do_possible_dsep": True,
            "alpha": 0.01,
            "permutation_trials": WIDE_TRIALS,
        })


class WideStep1(WideFci):
    """The wide table through step 1 (per-category graphs) only."""

    command = "step1"
    output_file = "step1.json"

    def check_content(self, payload: dict) -> list[str]:
        problems = []
        for cat in payload["per_category"]:
            if not set(cat["selected"]) <= set(cat["columns"]):
                problems.append(f"category {cat['category']}: selected outside its columns")
        if not payload["selected_features"]:
            problems.append("no feature selected")
        return problems


# -- oracle-mode FCI over small DAGs ---------------------------------------------

def _dags(n: int):
    """Every DAG over n nodes as a tuple of directed (src, dst) index pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = tuple(
            (i, j) if s == 1 else (j, i) for (i, j), s in zip(pairs, states) if s
        )
        if _acyclic(n, edges):
            yield edges


def _acyclic(n: int, edges) -> bool:
    indeg = [0] * n
    children = [[] for _ in range(n)]
    for a, b in edges:
        children[a].append(b)
        indeg[b] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for w in children[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == n


def _vstructures(n: int, edges) -> set:
    adjacent = {frozenset(e) for e in edges}
    parents = [[a for a, b in edges if b == z] for z in range(n)]
    return {
        (frozenset((x, y)), z)
        for z in range(n)
        for x, y in itertools.combinations(parents[z], 2)
        if frozenset((x, y)) not in adjacent
    }


class OracleFci:
    """FCI with a d-separation oracle over every DAG up to 4 nodes and a 5-node sample."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.info: dict = {}

    def setup(self) -> None:
        import numpy as np

        from causaltab import discovery
        from causaltab.data import ColumnSchema, Dataset
        from causaltab.graph import MixedGraph

        rng = random.Random(self.seed)
        cases = [(n, e) for n in (2, 3, 4) for e in _dags(n)]
        n_small = len(cases)
        cases += [(5, e) for e in rng.sample(list(_dags(5)), ORACLE_SAMPLE_5)]
        rng.shuffle(cases)
        self.views = {}
        for n in (2, 3, 4, 5):
            names = [f"v{i}" for i in range(n)]
            schema = [ColumnSchema(nm, "continuous", "synthetic") for nm in names]
            self.views[n] = Dataset(schema, {nm: np.zeros(2) for nm in names}).view()
        self.cases = []
        for n, edges in cases:
            dag = MixedGraph([f"v{i}" for i in range(n)])
            for a, b in edges:
                dag.add_directed_edge(f"v{a}", f"v{b}")
            self.cases.append((n, edges, dag))
        self.info.update(dags_up_to_4=n_small, dags_5_sampled=ORACLE_SAMPLE_5)
        # attributes are looked up per call, so the tracer's wrappers apply
        self.discovery = discovery

    def op(self, i: int):
        n, _edges, dag = self.cases[i % len(self.cases)]
        return self.discovery.run_fci(
            self.views[n],
            self.discovery.LearnConfig(do_possible_dsep=True),
            ci_test=self.discovery.oracle_ci_test(dag),
        )

    def check(self, result, i: int) -> list[str]:
        from causaltab.graph import ARROW

        n, edges, _dag = self.cases[i % len(self.cases)]
        g = result.graph
        idx = {f"v{k}": k for k in range(n)}
        learned = {frozenset((idx[e.u], idx[e.v])) for e in g.edges()}
        problems = []
        if learned != {frozenset(e) for e in edges}:
            problems.append(f"skeleton differs from DAG {edges}")
        colliders = {
            (frozenset((idx[x], idx[y])), idx[z])
            for z in g.nodes
            for x, y in itertools.combinations(g.neighbors(z), 2)
            if not g.has_edge(x, y)
            and g.mark_at(x, z, at=z) == ARROW
            and g.mark_at(y, z, at=z) == ARROW
        }
        if colliders != _vstructures(n, edges):
            problems.append(f"unshielded colliders differ from DAG {edges}")
        return problems

    def cross_check(self, result, delta: dict) -> list[str]:
        if delta["discovery.ci_test"] != result.tests_run:
            return [f"traced CI tests {delta['discovery.ci_test']} != tests_run {result.tests_run}"]
        return []


WORKLOADS = {
    "cohort_ref": CohortRef,
    "wide_step1": WideStep1,
    "wide_fci": WideFci,
    "oracle_fci": OracleFci,
}
