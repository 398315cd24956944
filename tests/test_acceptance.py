"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

from causaltab.data import ColumnSchema, Dataset
from causaltab.discovery import (
    LearnConfig,
    learn_skeleton,
    oracle_ci_test,
    orient_v_structures,
)
from causaltab.effects import enumerate_parent_sets, estimate_effect
from causaltab.graph import ARROW, MixedGraph
from causaltab.pipeline import PipelineConfig, run_full
from causaltab.stats import (
    ContingencyTable2x2,
    fisher_exact,
    fold_increase,
    g_squared_test,
    point_biserial,
)
from causaltab.synth import make_clinical_synth
from causaltab.tree import evaluate, fit_tree

from oracles import (
    best_stump_accuracy,
    cpdag_of_class,
    dag_vstructures,
    enumerate_dags,
    fisher_z_ci_test,
    group_dags_by_class,
    parent_sets_of_class,
    pearson_r,
    sample_sem,
    sem_from_edges,
    shd,
    tree_depth,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


def test_criterion_1_fisher_exact_matches_enumeration():
    with criterion(1, "fisher_exact equals exhaustive hypergeometric enumeration (total <= 40, 1e-12)"):
        checked = 0
        for total in range(1, 41):
            for r1 in range(total + 1):
                r2 = total - r1
                for c1 in range(total + 1):
                    lo, hi = max(0, c1 - r2), min(r1, c1)
                    if lo > hi:
                        continue
                    support = range(lo, hi + 1)
                    weights = [
                        math.comb(r1, k) * math.comb(r2, c1 - k) for k in support
                    ]
                    denom = math.comb(total, c1)
                    for a, w_obs in zip(support, weights):
                        # oracle inclusion decided in exact integer arithmetic,
                        # with the same documented 1e-7 relative tolerance
                        acc = sum(
                            w
                            for w in weights
                            if w <= w_obs or w * 10_000_000 <= w_obs * 10_000_001
                        )
                        oracle = acc / denom
                        t = ContingencyTable2x2(a, r1 - a, c1 - a, r2 - (c1 - a))
                        assert abs(fisher_exact(t).p_value - oracle) < 1e-12
                        checked += 1
        assert checked > 10_000


def test_criterion_2_reported_contingency_row():
    with criterion(2, "back-solved COPD table reproduces the published row and p-value"):
        a, b, c, d = 20, 9, 51, 185
        assert round(100 * a / (a + b), 1) == 69.0
        assert round(100 * b / (a + b), 1) == 31.0
        assert round(100 * c / (c + d), 1) == 21.6
        assert round(100 * d / (c + d), 1) == 78.4
        p = fisher_exact(ContingencyTable2x2(a, b, c, d)).p_value
        assert p / 5.2e-7 < 1.2 and 5.2e-7 / p < 1.2
        base_death = 71 / 265
        assert fold_increase(20 / 29, base_death).factor == 2.6
        assert fold_increase(23 / 32, base_death).factor == 2.7


def test_criterion_3_point_biserial_equals_pearson():
    with criterion(3, "point_biserial r equals Pearson on 1000 random pairs (1e-12)"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            n = int(rng.integers(10, 200))
            g = np.zeros(n)
            ones = rng.integers(1, n)
            g[rng.choice(n, size=ones, replace=False)] = 1.0
            x = rng.standard_normal(n) + g * rng.uniform(-2, 2)
            res = point_biserial(g, x)
            assert abs(res.effect - pearson_r(g, x)) < 1e-12


def test_criterion_4_ci_test_calibration():
    with criterion(4, "fisher-z and G^2 reject at 0.05 +/- 0.02 under their nulls (2000 reps)"):
        n, reps = 2000, 2000
        rng = np.random.default_rng(404)
        z_rejections = 0
        schema = [
            ColumnSchema("x", "continuous", "c"),
            ColumnSchema("y", "continuous", "c"),
        ]
        for _ in range(reps):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            view = Dataset(schema, {"x": x, "y": y}).view()
            z_rejections += fisher_z_ci_test("x", "y", (), view).p_value <= 0.05
        z_rate = z_rejections / reps
        assert abs(z_rate - 0.05) <= 0.02, f"fisher-z rate {z_rate}"

        g_rejections = 0
        cat_schema = [
            ColumnSchema("x", "binary", "c", levels=("0", "1")),
            ColumnSchema("y", "binary", "c", levels=("0", "1")),
        ]
        for _ in range(reps):
            x = (rng.random(n) < 0.5).astype(float)
            y = (rng.random(n) < 0.5).astype(float)
            view = Dataset(cat_schema, {"x": x, "y": y}).view()
            g_rejections += g_squared_test("x", "y", (), view).p_value <= 0.05
        g_rate = g_rejections / reps
        assert abs(g_rate - 0.05) <= 0.02, f"G^2 rate {g_rate}"


def _learned_vstructures(g: MixedGraph) -> set:
    out = set()
    for z in g.nodes:
        for x, y in itertools.combinations(g.neighbors(z), 2):
            if g.has_edge(x, y):
                continue
            if g.mark_at(x, z, at=z) == ARROW and g.mark_at(y, z, at=z) == ARROW:
                out.add((tuple(sorted((x, y))), z))
    return out


def test_criterion_5_oracle_mode_exactness():
    with criterion(5, "oracle-mode skeleton + v-structures exact on every DAG with <= 5 nodes"):
        for n_nodes in (2, 3, 4, 5):
            names = [f"v{i}" for i in range(n_nodes)]
            schema = [ColumnSchema(nm, "continuous", "synthetic") for nm in names]
            view = Dataset(schema, {nm: np.zeros(2) for nm in names}).view()
            for edges in enumerate_dags(names):
                dag = MixedGraph(names)
                for s, t in edges:
                    dag.add_directed_edge(s, t)
                res = learn_skeleton(view, LearnConfig(), ci_test=oracle_ci_test(dag))
                learned = {frozenset((e.u, e.v)) for e in res.graph.edges()}
                assert learned == {frozenset(e) for e in edges}
                oriented = orient_v_structures(res)
                assert _learned_vstructures(oriented) == dag_vstructures(edges)


def test_criterion_6_statistical_skeleton_recovery():
    with criterion(6, "random 8-node SEM skeletons recovered with SHD <= 1 in >= 90% of 20 runs"):
        names = [f"v{i}" for i in range(8)]
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            chosen = rng.choice(len(pairs), size=8, replace=False)  # mean degree 2
            edges = []
            for idx in chosen:
                i, j = pairs[idx]
                coef = float(rng.uniform(0.6, 1.4)) * (1 if rng.random() < 0.5 else -1)
                edges.append((names[i], names[j], coef))
            sem = sem_from_edges(edges, nodes=names)
            data = sample_sem(sem, 5000, seed=10_000 + seed)
            res = learn_skeleton(data.view(), LearnConfig(alpha=0.05))
            truth = MixedGraph(names)
            for s, t, _ in edges:
                truth.add_edge(s, t)
            hits += shd(res.graph.skeleton(), truth.skeleton()) <= 1
        assert hits >= 18, f"only {hits}/20 runs within SHD 1"


def test_criterion_7_effect_estimation_recovery():
    with criterion(7, "adjusted effects match closed form; parent sets match DAG-extension oracle"):
        # confounded benchmark: x <- z -> y plus x -> y
        a, b, c = 1.0, 1.0, 0.5
        sem = sem_from_edges([("z", "x", a), ("z", "y", b), ("x", "y", c)])
        data = sample_sem(sem, 20_000, seed=777)
        truth = c * math.sqrt(a**2 + 1) / math.sqrt((b + c * a) ** 2 + c**2 + 1)
        g = MixedGraph(["z", "x", "y"])
        g.add_directed_edge("z", "x")
        g.add_directed_edge("z", "y")
        g.add_directed_edge("x", "y")
        est = estimate_effect(data.view(), g, "x", "y")
        assert abs(est.mean_effect - truth) < 0.05

        # exhaustive 5-node essential graphs against the class oracle
        names = ["a", "b", "c", "d", "e"]
        for (_sig, members) in group_dags_by_class(names).items():
            directed, undirected = cpdag_of_class(members)
            cp = MixedGraph(names)
            for s, t in directed:
                cp.add_directed_edge(s, t)
            for u, v in undirected:
                cp.add_edge(u, v)
            for x in names:
                assert set(enumerate_parent_sets(cp, x)) == parent_sets_of_class(members, x)


def test_criterion_8_tree_contract():
    with criterion(8, "no fuzzed tree exceeds depth 4; XOR behaves per the split-search oracle"):
        rng = np.random.default_rng(808)
        for _ in range(10_000):
            n = int(rng.integers(1, 30))
            ds = Dataset(
                [
                    ColumnSchema("X1", "continuous", "c"),
                    ColumnSchema("X2", "continuous", "c"),
                    ColumnSchema("Y", "binary", "outcome", levels=("0", "1")),
                ],
                {
                    "X1": rng.normal(size=n),
                    "X2": rng.integers(0, 4, size=n).astype(float),
                    "Y": rng.integers(0, 2, size=n).astype(float),
                },
            )
            tree = fit_tree(ds.view(), ["X1", "X2"], "Y", max_depth=4)
            assert tree_depth(tree) <= 4

        xor = Dataset(
            [
                ColumnSchema("A", "binary", "c", levels=("0", "1")),
                ColumnSchema("B", "binary", "c", levels=("0", "1")),
                ColumnSchema("Y", "binary", "outcome", levels=("0", "1")),
            ],
            {
                "A": np.array([0.0, 0, 1, 1]),
                "B": np.array([0.0, 1, 0, 1]),
                "Y": np.array([0.0, 1, 1, 0]),
            },
        )
        deep = fit_tree(xor.view(), ["A", "B"], "Y", max_depth=2)
        assert evaluate(deep, xor.view(), "Y").accuracy == 1.0
        stump = fit_tree(xor.view(), ["A", "B"], "Y", max_depth=1)
        oracle = best_stump_accuracy([(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
        assert evaluate(stump, xor.view(), "Y").accuracy == oracle


@pytest.fixture(scope="module")
def full_pipeline_run():
    ds, truth = make_clinical_synth(1)
    report = run_full(ds, PipelineConfig(seed=1))  # 1000 permutation trials
    return ds, truth, report


def test_criterion_9_end_to_end_qualitative_reproduction(full_pipeline_run):
    with criterion(9, "end-to-end synthetic cohort reproduces the qualitative pattern"):
        _, _, report = full_pipeline_run
        # (a) interpretable tree fits its training data well
        assert report.step2.train_metrics.accuracy >= 0.90
        # (b) the causal features detect deaths far better than random
        # draws; with death as the positive class the death-detection
        # rate is the sensitivity, and the gap must be at least 0.10
        cv = report.step3.cv_metrics
        comparison = report.step3.comparison
        gap = cv.sensitivity - comparison["baseline_mean_sensitivity"]
        assert gap >= 0.10, f"death-detection gap {gap:.3f}"
        # (c) causal-feature misclassification below the 10th percentile
        # of the 1000-trial permutation distribution
        assert comparison["baseline_quantile_of_causal"] < 0.10


def test_criterion_10_pipeline_determinism():
    with criterion(10, "identical seed and config produce byte-identical machine reports"):
        ds, _ = make_clinical_synth(4)
        config = PipelineConfig(permutation_trials=150, seed=4)
        first = run_full(ds, config).to_json().encode()
        second = run_full(ds, config).to_json().encode()
        assert first == second
