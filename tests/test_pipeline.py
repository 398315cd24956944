import json
from dataclasses import fields, replace

import numpy as np
import pytest

from causaltab.data import ColumnSchema, Dataset, complete_cases
from causaltab.effects import EffectEstimate
from causaltab.errors import CausalTabError, SingularCorrelationError
from causaltab.graph import MixedGraph, PriorKnowledge
from causaltab.pipeline import (
    PipelineConfig,
    run_full,
    step1_per_category,
    step2_integrated,
    step3_predictive,
    write_report,
    write_step3,
)
from causaltab.synth import make_clinical_synth
from causaltab.tree import Leaf, iter_nodes, Split

from oracles import parse_dot, shd

QUIET = PipelineConfig(permutation_trials=0)


@pytest.fixture(scope="module")
def cohort():
    return make_clinical_synth(1)


@pytest.fixture(scope="module")
def step1(cohort):
    ds, _ = cohort
    return step1_per_category(ds, QUIET)


@pytest.fixture(scope="module")
def step2(cohort, step1):
    ds, _ = cohort
    return step2_integrated(ds, step1.selected_features, QUIET)


def constant_together_table() -> Dataset:
    """300 rows on which features A and B are both constant where both are observed.

    A is observed on rows 0-99 and 200-299, B on rows 100-299. Each copies
    the outcome where only it is observed, and A = B = 0 on rows 200-299.
    A and B sit in different categories, so step 1 selects both.
    """
    rng = np.random.default_rng(0)
    outcome = rng.integers(0, 2, size=300).astype(float)
    a = np.full(300, np.nan)
    b = np.full(300, np.nan)
    a[:100] = outcome[:100]
    b[100:200] = outcome[100:200]
    a[200:] = b[200:] = 0.0
    schema = [
        ColumnSchema("A", "binary", "history", levels=("0", "1")),
        ColumnSchema("B", "binary", "labs", levels=("0", "1")),
        ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
    ]
    return Dataset(schema, {"A": a, "B": b, "OUTCOME": outcome})


class TestStep1:
    def test_selection_contains_truth_features_across_seeds(self):
        hits = 0
        for seed in range(20):
            ds, truth = make_clinical_synth(seed)
            result = step1_per_category(ds, QUIET)
            backbone = set(truth.nodes) - {"OUTCOME"}
            hits += backbone <= set(result.selected_features)
        assert hits >= 18  # >= 90% of 20 seeds

    def test_selected_features_within_two_hops_in_some_category(self, step1):
        from causaltab.graph import neighbors_within

        for feat in step1.selected_features:
            assert any(
                cat.graph.has_node(feat)
                and feat in neighbors_within(cat.graph, "OUTCOME", 2)
                for cat in step1.per_category
            )

    def test_category_without_outcome_link_contributes_nothing(self):
        rng = np.random.default_rng(0)
        n = 300
        schema = [
            ColumnSchema("N1", "continuous", "noise"),
            ColumnSchema("N2", "continuous", "noise"),
            ColumnSchema("S", "continuous", "signal"),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
        ]
        latent = rng.standard_normal(n)
        cols = {
            "N1": rng.standard_normal(n),
            "N2": rng.standard_normal(n),
            "S": latent + 0.5 * rng.standard_normal(n),
            "OUTCOME": (latent > 0).astype(float),
        }
        ds = Dataset(schema, cols)
        result = step1_per_category(ds, PipelineConfig(permutation_trials=0))
        by_cat = {c.category: c for c in result.per_category}
        assert by_cat["noise"].selected == ()
        assert "S" in result.selected_features

    def test_category_left_with_no_feature_is_skipped(self):
        # a treatment nobody received: dropped as constant, it leaves its
        # category's view with the outcome alone
        rng = np.random.default_rng(0)
        n = 300
        schema = [
            ColumnSchema("S", "continuous", "signal"),
            ColumnSchema("DRUG", "binary", "treatments", levels=("0", "1")),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
        ]
        latent = rng.standard_normal(n)
        cols = {
            "S": latent + 0.5 * rng.standard_normal(n),
            "DRUG": np.zeros(n),
            "OUTCOME": (latent > 0).astype(float),
        }
        result = step1_per_category(Dataset(schema, cols), QUIET)
        assert [c.category for c in result.per_category] == ["signal"]
        assert result.selected_features == ("S",)

    def test_prior_forbidding_direct_edge_drops_unreachable_feature(self):
        rng = np.random.default_rng(1)
        n = 400
        schema = [
            ColumnSchema("A", "continuous", "only"),
            ColumnSchema("B", "continuous", "only"),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
        ]
        latent = rng.standard_normal(n)
        cols = {
            "A": latent + 0.3 * rng.standard_normal(n),
            "B": rng.standard_normal(n),
            "OUTCOME": (latent > 0).astype(float),
        }
        ds = Dataset(schema, cols)
        free = step1_per_category(ds, PipelineConfig(permutation_trials=0))
        assert "A" in free.selected_features
        blocked = step1_per_category(
            ds,
            PipelineConfig(
                permutation_trials=0,
                prior=PriorKnowledge.from_pairs(forbidden=[("A", "OUTCOME")]),
            ),
        )
        assert "A" not in blocked.selected_features

    def test_prior_with_unknown_column_is_hard_error(self, cohort):
        ds, _ = cohort
        cfg = PipelineConfig(
            permutation_trials=0,
            prior=PriorKnowledge.from_pairs(forbidden=[("AGE", "NOT_A_COLUMN")]),
        )
        from causaltab.errors import UnknownNodeError

        with pytest.raises(UnknownNodeError):
            step1_per_category(ds, cfg)


class TestStep2:
    def test_integrated_graph_close_to_truth_backbone(self):
        hits = 0
        for seed in range(20):
            ds, truth = make_clinical_synth(seed)
            s1 = step1_per_category(ds, QUIET)
            s2 = step2_integrated(ds, s1.selected_features, QUIET)
            sub = MixedGraph(truth.nodes)
            for e in s2.graph.edges():
                if sub.has_node(e.u) and sub.has_node(e.v):
                    sub.add_edge(e.u, e.v)
            hits += shd(sub.skeleton(), truth.skeleton()) <= 2
        assert hits >= 16  # >= 80% of 20 seeds

    def test_complete_case_count_matches_recount(self, cohort, step1, step2):
        ds, _ = cohort
        recount = complete_cases(ds, [*step2.columns])
        assert step2.n_rows == recount.n_rows

    def test_bivariate_tables_cover_feature_kinds(self, step2):
        by_feature = {row["feature"]: row for row in step2.bivariate}
        assert by_feature["COPD"]["test"] == "fisher_exact"
        assert by_feature["AGE"]["test"] == "point_biserial"
        assert "table" not in by_feature["AGE"]
        copd = by_feature["COPD"]
        assert sum(copd["table"]) == copd["n_rows"]
        assert copd["fold"]["direction"] == "death"
        assert copd["fold"]["factor"] >= 1.2 and copd["fold"]["shown"]

    def test_protective_feature_gets_recovery_fold(self, step2):
        myalgia = next(r for r in step2.bivariate if r["feature"] == "MYALGIA")
        assert myalgia["fold"]["direction"] == "recovery"

    def test_tree_uses_only_integrated_columns(self, step2):
        assert set(step2.tree_features) <= set(step2.columns)
        for node, _ in iter_nodes(step2.tree):
            if isinstance(node, Split):
                assert node.feature in step2.columns

    def test_train_metrics_rederive_from_counts(self, step2):
        m = step2.train_metrics
        assert abs(m.accuracy - (m.tp + m.tn) / (m.tp + m.tn + m.fp + m.fn)) < 1e-12

    def test_empty_selection_rejected(self, cohort):
        ds, _ = cohort
        with pytest.raises(CausalTabError):
            step2_integrated(ds, [], QUIET)

    def test_features_constant_together_rejected_by_name(self):
        ds = constant_together_table()
        with pytest.raises(CausalTabError, match="constant on the joint complete cases: A, B"):
            step2_integrated(ds, ["A", "B"], QUIET)


class TestStep3:
    def test_comparison_and_quantile(self, cohort, step2):
        ds, _ = cohort
        cfg = PipelineConfig(permutation_trials=150, seed=1)
        s3 = step3_predictive(ds, step2.tree_features, cfg)
        assert s3.permutation is not None
        c = s3.comparison
        # causal misclassification sits below the 5th percentile of the
        # random-feature distribution
        assert c["baseline_quantile_of_causal"] <= 0.05
        assert len(s3.permutation.trials) == 150
        for trial in s3.permutation.trials:
            assert abs(trial.n_rows - s3.permutation.target_n) <= 0.1 * s3.permutation.target_n

    def test_histogram_counts_every_trial(self, cohort, step2):
        # with analysis seed 711 the worst trial misclassifies
        # 0.3700000000000001 of its rows, a rounding error above a bin edge
        ds, _ = cohort
        cfg = PipelineConfig(permutation_trials=50, seed=711)
        s3 = step3_predictive(ds, step2.tree_features, cfg)
        assert s3.permutation.misclassification().max() == 0.3700000000000001
        assert sum(count for _, _, count in s3.comparison["histogram"]) == 50

    def test_zero_trials_skips_comparison(self, cohort, step2, tmp_path):
        ds, _ = cohort
        s3 = step3_predictive(ds, step2.tree_features, QUIET)
        assert s3.permutation is None
        assert s3.comparison is None
        write_step3(s3, tmp_path)
        payload = json.loads((tmp_path / "step3.json").read_text())
        assert "permutation" not in payload
        assert "comparison" not in payload
        assert not (tmp_path / "permutation_histogram.csv").exists()

    def test_no_tree_feature_raises(self, cohort):
        ds, _ = cohort
        cfg = PipelineConfig(permutation_trials=3, seed=1)
        with pytest.raises(CausalTabError, match="the step-2 tree uses no feature"):
            step3_predictive(ds, [], cfg)

    def test_outcome_override_keeps_outcome_columns_out_of_the_baseline(self, cohort):
        # with a non-schema outcome, every random-feature tree predicts that
        # outcome and no draw may include the schema's outcome column
        ds, _ = cohort
        cfg = PipelineConfig(
            outcome="CONFUSION", permutation_trials=20, permutation_features=8, cv_folds=5, seed=1
        )
        s3 = step3_predictive(ds, ["AGE", "BUN", "PF"], cfg)
        assert len(s3.permutation.trials) == 20
        for trial in s3.permutation.trials:
            assert "OUTCOME" not in trial.features
            assert "CONFUSION" not in trial.features


class TestFullRun:
    def test_report_deterministic_bytes(self, cohort):
        ds, _ = cohort
        cfg = PipelineConfig(permutation_trials=40, seed=7)
        r1 = run_full(ds, cfg)
        r2 = run_full(ds, cfg)
        assert r1.to_json() == r2.to_json()

    def test_ordinal_outcome_report_deterministic_bytes(self, cohort):
        # SMOKE_EXYN has three codes; every CV fold must label every row
        ds, _ = cohort
        cfg = PipelineConfig(seed=1, outcome="SMOKE_EXYN", permutation_trials=5)
        assert run_full(ds, cfg).to_json() == run_full(ds, cfg).to_json()

    def test_single_leaf_step2_tree_skips_step3(self, cohort, monkeypatch, tmp_path):
        # a step-2 tree without a split leaves step 3 nothing to compare
        import causaltab.pipeline as pipeline

        real = pipeline.step2_integrated

        def single_leaf(*args, **kwargs):
            s2 = real(*args, **kwargs)
            return replace(s2, tree=Leaf(s2.tree.class_counts, 0), tree_features=())

        monkeypatch.setattr(pipeline, "step2_integrated", single_leaf)
        ds, _ = cohort
        report = run_full(ds, PipelineConfig(permutation_trials=3, seed=1))
        assert report.step2 is not None and report.step3 is None
        write_report(report, tmp_path, ds)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["step2"]["tree_features"] == []
        assert "step3" not in payload
        assert (tmp_path / "tree.dot").exists()
        assert not (tmp_path / "permutation_histogram.csv").exists()

    def test_features_constant_together_write_step1_report(self, tmp_path):
        ds = constant_together_table()
        report = run_full(ds, QUIET)
        assert report.step1.selected_features == ("A", "B")
        assert report.step2 is None and report.step3 is None
        write_report(report, tmp_path, ds)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert set(payload) == {"config", "outcome", "summary", "step1"}

    def test_collinear_copy_still_raises_at_its_first_asked_query(self, cohort):
        # a copy of CREATININE in a category of its own makes every step-2
        # query on the pair singular; the batched CI test defers a failed
        # chunk to its one-query path, which raises for the first set asked
        ds, _ = cohort
        copy = replace(ds.schema_for("CREATININE"), name="CREATININE_COPY", category="copies")
        columns = {c.name: ds.coded(c.name) for c in ds.schema}
        columns[copy.name] = ds.coded("CREATININE").copy()
        with pytest.raises(SingularCorrelationError) as info:
            run_full(Dataset([*ds.schema, copy], columns), PipelineConfig(seed=1))
        assert str(info.value) == "correlation submatrix for (5, 6 | (8,)) is singular"

    def test_report_metrics_rederive_and_files_write(self, cohort, tmp_path):
        ds, _ = cohort
        cfg = PipelineConfig(permutation_trials=25, seed=3)
        report = run_full(ds, cfg)
        payload = json.loads(report.to_json())

        conf = payload["step2"]["train_metrics"]["confusion"]
        n = sum(conf.values())
        accuracy = payload["step2"]["train_metrics"]["accuracy"]
        assert abs(accuracy - (conf["tp"] + conf["tn"]) / n) < 1e-9
        assert payload["step3"]["permutation"]["n_trials"] == 25
        # file outputs
        write_report(report, tmp_path / "out", ds)
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "integrated.dot").exists()
        assert (out / "tree.dot").exists()
        assert (out / "permutation_histogram.csv").exists()
        parsed = parse_dot((out / "integrated.dot").read_text())
        assert set(parsed.nodes) == set(report.step2.graph.nodes)
        hist_lines = (out / "permutation_histogram.csv").read_text().strip().splitlines()
        assert hist_lines[0] == "bin_lo,bin_hi,count"
        assert sum(int(l.split(",")[2]) for l in hist_lines[1:]) == 25

    def test_each_section_is_written_as_its_fields(self, cohort):
        ds, _ = cohort
        report = run_full(ds, PipelineConfig(permutation_trials=3, seed=1))
        payload = json.loads(report.to_json())

        def field_names(result):
            return {
                f.name for f in fields(result)
                if f.name != "tree" and getattr(result, f.name) is not None
            }

        assert set(payload) == field_names(report)
        assert set(payload["step1"]) == field_names(report.step1)
        for cat, written in zip(report.step1.per_category, payload["step1"]["per_category"]):
            assert set(written) == field_names(cat)
        assert set(payload["step2"]) == field_names(report.step2)
        assert "tree" not in payload["step2"]
        assert set(payload["step2"]["effects"][0]["displayed"]) == {
            f.name for f in fields(EffectEstimate)
        }
        assert set(payload["step3"]) == field_names(report.step3)
        trial = report.step3.permutation.trials[0]
        assert set(payload["step3"]["permutation"]["trials"][0]) == field_names(trial)

    def test_max_missing_filter_drops_leaky_columns(self):
        ds, _ = make_clinical_synth(5)
        cfg = PipelineConfig(permutation_trials=0, max_missing=10)
        result = step1_per_category(ds, cfg)
        analyzed = {c for cat in result.per_category for c in cat.columns}
        assert "PH" not in analyzed  # 22 missing cells > threshold
        assert "AGE" in analyzed

    def test_oracle_dag_factory_runs_end_to_end(self, cohort):
        ds, truth = cohort
        from causaltab.discovery import oracle_ci_test

        cfg = PipelineConfig(permutation_trials=0)
        result = step1_per_category(ds, cfg, oracle_ci_test(truth))
        # with exact d-separation the selected set is exactly the truth features
        assert set(result.selected_features) == set(truth.nodes) - {"OUTCOME"}


def test_config_json_round_trip():
    cfg = PipelineConfig(
        alpha=0.01,
        max_cond_size=2,
        permutation_trials=17,
        prior=PriorKnowledge.from_pairs(forbidden=[("A", "B")]),
    )
    again = PipelineConfig.from_json_dict(cfg.to_json_dict())
    assert again.alpha == 0.01
    assert again.max_cond_size == 2
    assert again.permutation_trials == 17
    assert frozenset(("A", "B")) in again.prior.forbidden


def test_config_unknown_key_is_an_error():
    with pytest.raises(ValueError, match="alpah"):
        PipelineConfig.from_json_dict({"alpah": 0.5})


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", 2.0),
        ("alpha", 0.0),
        ("max_cond_size", -1),
        ("tree_max_depth", 0),
        ("cv_folds", 1),
        ("permutation_features", 0),
        ("permutation_features", -1),
    ],
)
def test_config_rejects_a_bad_value_when_built(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})


def test_config_accepts_the_smallest_valid_values():
    PipelineConfig(max_cond_size=0, tree_max_depth=1, cv_folds=2, permutation_features=1)
    PipelineConfig(max_cond_size=None, permutation_features=None)


def test_config_json_round_trip_covers_every_field():
    cfg = PipelineConfig(outcome="CONFUSION", do_possible_dsep=True, permutation_features=5)
    payload = cfg.to_json_dict()
    assert set(payload) == {f for f in PipelineConfig.__dataclass_fields__} - {"prior"}
    assert PipelineConfig.from_json_dict(payload) == cfg
