import gc

import numpy as np
import pytest

from causaltab.data import ColumnSchema, Dataset, DatasetView, complete_cases
from causaltab.errors import (
    EmptyDataError,
    ExhaustedDrawsError,
    IncompleteViewError,
    TooFewRowsError,
    UnknownColumnError,
)
from causaltab.synth import make_clinical_synth
from causaltab.tree import (
    RETRY_BUDGET,
    Leaf,
    Metrics,
    PermutationResult,
    PermutationTrial,
    Split,
    evaluate,
    fit_tree,
    iter_nodes,
    kfold_cv,
    permutation_baseline,
    predict_matrix,
    tree_features,
    tree_to_dot,
)

from oracles import best_stump_accuracy, reference_fit_tree, reference_kfold_cv, tree_depth


def numeric_dataset(columns: dict, binary=("Y",)):
    schema = []
    for name in columns:
        if name in binary:
            category = "outcome" if name == "Y" else "c"
            schema.append(ColumnSchema(name, "binary", category, levels=("0", "1")))
        else:
            schema.append(ColumnSchema(name, "continuous", "c"))
    return Dataset(schema, {k: np.asarray(v, dtype=float) for k, v in columns.items()})


def xor_dataset():
    return numeric_dataset(
        {
            "A": [0, 0, 1, 1],
            "B": [0, 1, 0, 1],
            "Y": [0, 1, 1, 0],
        },
        binary=("A", "B", "Y"),
    )


#: Three continuous step-2 tree features of the seed-1 cohort, all values
#: distinct on their 246 complete cases.
COHORT_FEATURES = ["AGE", "PF", "CREATININE"]


@pytest.fixture(scope="module")
def cohort():
    return make_clinical_synth(1)[0]


class TestFitTree:
    def test_perfectly_separable_1d(self):
        ds = numeric_dataset({"X": [0.1, 0.2, 0.4, 0.6, 0.8, 0.9], "Y": [0, 0, 0, 1, 1, 1]})
        tree = fit_tree(ds.view(), ["X"], "Y", max_depth=3)
        assert isinstance(tree, Split)
        assert 0.4 < tree.threshold < 0.6
        assert tree_depth(tree) == 1
        assert evaluate(tree, ds.view(), "Y").accuracy == 1.0

    def test_pure_input_single_leaf(self):
        ds = numeric_dataset({"X": [1.0, 2.0, 3.0], "Y": [1, 1, 1]})
        tree = fit_tree(ds.view(), ["X"], "Y", max_depth=4)
        assert isinstance(tree, Leaf)
        assert tree.predicted == 1

    def test_xor_depth_two_is_perfect(self):
        ds = xor_dataset()
        tree = fit_tree(ds.view(), ["A", "B"], "Y", max_depth=2)
        assert evaluate(tree, ds.view(), "Y").accuracy == 1.0

    def test_xor_depth_one_matches_exhaustive_split_oracle(self):
        # the oracle enumerates every axis split of the 4 points with the
        # class-majority leaf convention; the spec prose quotes 0.75 for
        # this case but no single split of a balanced XOR can exceed the
        # oracle value, so the oracle's number is the binding expectation
        points = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        oracle = best_stump_accuracy(points)
        ds = xor_dataset()
        tree = fit_tree(ds.view(), ["A", "B"], "Y", max_depth=1)
        assert evaluate(tree, ds.view(), "Y").accuracy == oracle

    def test_leaf_tie_predicts_death_by_default(self):
        ds = numeric_dataset({"X": [1.0, 1.0], "Y": [0, 1]})
        tree = fit_tree(ds.view(), ["X"], "Y", max_depth=2)
        assert isinstance(tree, Leaf)
        assert tree.predicted == 0

    def test_binary_feature_splits_between_its_codes(self):
        ds = numeric_dataset(
            {"A": [0, 0, 1, 1], "Y": [0, 0, 1, 1]}, binary=("A", "Y")
        )
        tree = fit_tree(ds.view(), ["A"], "Y", max_depth=1)
        assert isinstance(tree, Split)
        assert 0 <= tree.threshold < 1
        assert tree.left.class_counts == (2, 0)
        assert tree.right.class_counts == (0, 2)
        assert "A = 0?" in tree_to_dot(tree, ds.schema_for)

    def test_threshold_sits_at_the_best_cut(self):
        # ordinal codes with ties: the best cut lies between codes 1 and 2,
        # not at the first distinct-value boundary
        schema = [
            ColumnSchema("X", "ordinal", "c", levels=("0", "1", "2")),
            ColumnSchema("Y", "binary", "outcome", levels=("0", "1")),
        ]
        ds = Dataset(
            schema,
            {"X": np.array([0.0, 0, 1, 1, 2, 2]), "Y": np.array([0.0, 0, 0, 0, 1, 1])},
        )
        tree = fit_tree(ds.view(), ["X"], "Y", max_depth=1)
        assert tree.threshold == 1.5
        assert evaluate(tree, ds.view(), "Y").accuracy == 1.0

    def test_equal_gini_prefers_earlier_feature(self):
        # two identical copies of the same separating feature: the split
        # must use the one declared first
        ds = numeric_dataset({"F2": [0.0, 1, 0, 1], "F1": [0.0, 1, 0, 1], "Y": [0, 1, 0, 1]})
        tree = fit_tree(ds.view(), ["F2", "F1"], "Y", max_depth=1)
        assert tree.feature == "F2"

    def test_empty_data_raises(self):
        ds = numeric_dataset({"X": [1.0], "Y": [0]})
        view = complete_cases(ds, ["X", "Y"])
        empty = type(view)(view.source, view.columns, np.array([], dtype=int))
        with pytest.raises(EmptyDataError):
            fit_tree(empty, ["X"], "Y", max_depth=1)

    def test_depth_bound_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            ds = numeric_dataset(
                {
                    "X1": rng.normal(size=n),
                    "X2": rng.integers(0, 3, size=n).astype(float),
                    "Y": rng.integers(0, 2, size=n),
                }
            )
            depth = int(rng.integers(1, 5))
            tree = fit_tree(ds.view(), ["X1", "X2"], "Y", max_depth=depth)
            assert tree_depth(tree) <= depth

    def test_training_accuracy_monotone_in_depth(self):
        rng = np.random.default_rng(17)
        n = 120
        ds = numeric_dataset(
            {
                "X1": rng.normal(size=n),
                "X2": rng.normal(size=n),
                "Y": rng.integers(0, 2, size=n),
            }
        )
        accs = [
            evaluate(fit_tree(ds.view(), ["X1", "X2"], "Y", max_depth=d), ds.view(), "Y").accuracy
            for d in range(1, 7)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))

    def test_children_partition_parent_counts(self):
        rng = np.random.default_rng(23)
        n = 80
        ds = numeric_dataset({"X": rng.normal(size=n), "Y": rng.integers(0, 2, size=n)})
        tree = fit_tree(ds.view(), ["X"], "Y", max_depth=4)
        for node, _ in iter_nodes(tree):
            if isinstance(node, Split):
                left = node.left.class_counts if isinstance(node.left, Leaf) else node.left.class_counts
                right = node.right.class_counts if isinstance(node.right, Leaf) else node.right.class_counts
                assert tuple(l + r for l, r in zip(left, right)) == node.class_counts


def mixed_table(rng):
    """Seeded table of 1-60 rows mixing binary, tied ordinal, continuous and constant columns."""
    n = int(rng.choice([int(rng.integers(1, 8)), int(rng.integers(8, 61))]))
    schema, coded = [], {}
    for f in range(int(rng.integers(0, 7))):
        name = f"F{f}"
        kind = ("binary", "ordinal", "continuous", "constant")[int(rng.integers(0, 4))]
        if kind == "binary":
            schema.append(ColumnSchema(name, "binary", "c", levels=("0", "1")))
            coded[name] = rng.integers(0, 2, n).astype(float)
        elif kind == "ordinal":
            # three levels, so most values are tied
            schema.append(ColumnSchema(name, "ordinal", "c", levels=("0", "1", "2")))
            coded[name] = rng.integers(0, 3, n).astype(float)
        elif kind == "continuous":
            schema.append(ColumnSchema(name, "continuous", "c"))
            coded[name] = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
        else:
            schema.append(ColumnSchema(name, "continuous", "c"))
            coded[name] = np.full(n, float(rng.integers(-2, 3)))
    schema.append(ColumnSchema("Y", "binary", "outcome", levels=("0", "1")))
    coded["Y"] = (rng.random(n) < rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])).astype(float)
    return Dataset(schema, coded), [c.name for c in schema[:-1]]


def holed_table():
    """60 rows of tied, integer-valued and binary columns, one with holes, and the outcome."""
    rng = np.random.default_rng(53)
    n = 60
    schema = [
        ColumnSchema("TIED", "ordinal", "c", levels=("0", "1", "2")),
        ColumnSchema("INT", "continuous", "c"),
        ColumnSchema("BIN", "binary", "c", levels=("0", "1")),
        ColumnSchema("HOLED", "continuous", "c"),
        ColumnSchema("Y", "binary", "outcome", levels=("0", "1")),
    ]
    holed = np.round(rng.normal(size=n), 1)
    holed[rng.random(n) < 0.25] = np.nan
    tied = rng.integers(0, 3, n).astype(float)
    coded = {
        "TIED": tied,
        "INT": rng.integers(-4, 5, n).astype(float),
        "BIN": rng.integers(0, 2, n).astype(float),
        "HOLED": holed,
        "Y": (tied + rng.normal(size=n) > 1.2).astype(float),
    }
    return Dataset(schema, coded), [c.name for c in schema[:-1]]


class TestFitTreeMatchesReference:
    """``fit_tree`` grows exactly the tree of the per-column reference search."""

    def test_random_mixed_tables(self):
        rng = np.random.default_rng(2024)
        small_split = pure_leaf_before_max_depth = False
        for t in range(300):
            ds, feats = mixed_table(rng)
            depth = t % 5 + 1
            tree = fit_tree(ds.view(), feats, "Y", max_depth=depth)
            assert tree == reference_fit_tree(ds.view(), feats, "Y", max_depth=depth), t
            for node, d in iter_nodes(tree):
                total = sum(node.class_counts)
                small_split |= isinstance(node, Split) and total <= 3
                pure_leaf_before_max_depth |= (
                    isinstance(node, Leaf) and d <= depth and 0 < total == max(node.class_counts)
                )
        # the draws reach the cases the search must get right
        assert small_split and pure_leaf_before_max_depth

    def test_tied_and_extreme_values(self):
        # tied ordinal codes whose best cut is not the first boundary; a
        # midpoint 0.5 * (a + b) that rounds onto b, which then routes left
        # with a; midpoints that overflow to +-inf
        one_ulp = np.nextafter(1.0, 2.0) - 1.0
        cases = [
            ([0, 0, 1, 1, 2, 2], [0, 0, 0, 0, 1, 1]),
            ([1 + one_ulp, 1 + 2 * one_ulp, 2.0], [0, 1, 1]),
            ([1 + one_ulp, 1 + 2 * one_ulp, 2.0], [0, 0, 1]),
            ([1e308, 1.5e308, 1.7e308], [0, 1, 1]),
            ([-1.7e308, -1.5e308, -1e308], [0, 0, 1]),
        ]
        for x, y in cases:
            ds = numeric_dataset({"X": x, "Y": y})
            for depth in (1, 2, 3):
                with np.errstate(over="ignore"):
                    tree = fit_tree(ds.view(), ["X"], "Y", max_depth=depth)
                    assert tree == reference_fit_tree(ds.view(), ["X"], "Y", max_depth=depth)

    def test_cohort_trial_folds(self, cohort, monkeypatch):
        # every training fold of a short permutation run on the reference
        # cohort: about 200 rows whose continuous columns are nearly all
        # distinct, unlike the small tables above
        fits = TestCallStructure.record(monkeypatch, "fit_tree")
        pool = [c for c in cohort.column_names if c != "OUTCOME"]
        permutation_baseline(
            cohort, pool, "OUTCOME", n_features=3, n_trials=10, k=10, max_depth=1,
            target_n=221, seed=1,
        )
        assert len(fits) == 100
        distinct = []
        for (view, feats, outcome, _), _ in fits:
            assert view.n_rows >= 190
            distinct += [np.unique(view.matrix([f])).size for f in feats]
            for depth in range(1, 7):
                tree = fit_tree(view, feats, outcome, depth)
                assert tree == reference_fit_tree(view, feats, outcome, depth), (feats, depth)
        assert max(distinct) >= 190

    def test_cv_folds_from_the_shared_presort(self, monkeypatch):
        # kfold_cv grows every fold from its view's one presort: each fold
        # tree must be the reference tree of a fresh fold view, and each CV
        # must score as the reference CV over fresh fold views does
        import causaltab.tree as tree_module

        cvs = TestCallStructure.record(monkeypatch, "kfold_cv")
        fits = TestCallStructure.record(monkeypatch, "fit_tree")
        for cohort_seed in (1, 4):
            ds = make_clinical_synth(cohort_seed)[0]
            pool = [c for c in ds.column_names if c != "OUTCOME"]
            for depth in range(1, 7):
                permutation_baseline(
                    ds, pool, "OUTCOME", n_features=3, n_trials=2, k=10, max_depth=depth,
                    target_n=250, seed=depth,
                )
        ds, feats = holed_table()
        view = complete_cases(ds, [*feats, "Y"])
        assert 30 <= view.n_rows < ds.n_rows  # a non-contiguous subset of the rows
        for depth in range(1, 7):
            tree_module.kfold_cv(view, feats, "Y", 5, depth, depth)
        monkeypatch.undo()
        assert len(cvs) == 2 * 6 * 2 + 6
        assert len(fits) == 2 * 6 * 2 * 10 + 6 * 5
        for (fold_view, fold_feats, outcome, depth), tree in fits:
            assert tree == reference_fit_tree(fold_view, fold_feats, outcome, depth)
        for args, metrics in cvs:
            assert metrics == reference_kfold_cv(*args), args[1:]
        assert max(tree_depth(tree) for _, tree in fits) == 6

    def test_no_features_gives_a_leaf(self):
        ds = numeric_dataset({"Y": [0, 1, 1]})
        tree = fit_tree(ds.view(), [], "Y", max_depth=2)
        assert tree == reference_fit_tree(ds.view(), [], "Y", max_depth=2) == Leaf((1, 2), 1)


def binned_cohort():
    """The seed-1 cohort plus AGE, PF and BUN binned into 4-, 5- and 5-level ordinals."""
    ds = make_clinical_synth(1)[0]
    schema, coded = list(ds.schema), {c: ds.coded(c) for c in ds.column_names}
    for name, k in (("AGE", 4), ("PF", 5), ("BUN", 5)):
        cuts = np.nanquantile(coded[name], np.arange(1, k) / k)
        coded[name + "_BIN"] = np.where(np.isnan(coded[name]), np.nan, np.searchsorted(cuts, coded[name]))
        levels = tuple(str(i) for i in range(k))
        schema.insert(-1, ColumnSchema(name + "_BIN", "ordinal", "prior_diseases", levels=levels))
    return Dataset(schema, coded)


class TestLevelWiseGrower:
    """Edge cases of growing the trees of many row masks together, against the oracles."""

    @staticmethod
    def same_as_reference(view, feats, outcome, ks=(2, 5, 10), depths=(1, 2, 4, 6)):
        for depth in depths:
            assert fit_tree(view, feats, outcome, depth) == reference_fit_tree(
                view, feats, outcome, depth
            ), (feats, depth)
            for k in ks:
                args = (view, feats, outcome, k, depth, depth + k)
                assert kfold_cv(*args) == reference_kfold_cv(*args), (feats, k, depth)

    def test_ordinal_level_missing_from_a_node(self):
        # where A = 0, X takes only its end levels 0 and 4, so the nodes
        # below a split on A see X's levels with a gap, and cut at 2.0
        rng = np.random.default_rng(71)
        gap_cut = False
        for _ in range(20):
            n = 80
            a = rng.integers(0, 2, n)
            x = np.where(a == 1, rng.integers(0, 5, n), 4 * rng.integers(0, 2, n))
            y = (rng.random(n) < 0.15 + 0.35 * a + 0.12 * x).astype(float) % 2
            ds = Dataset(
                [
                    ColumnSchema("A", "binary", "c", levels=("0", "1")),
                    ColumnSchema("X", "ordinal", "c", levels=tuple("01234")),
                    ColumnSchema("Y", "binary", "outcome", levels=("0", "1")),
                ],
                {"A": a.astype(float), "X": x.astype(float), "Y": y},
            )
            self.same_as_reference(ds.view(), ["A", "X"], "Y", ks=(2, 5), depths=(2, 3))
            tree = fit_tree(ds.view(), ["A", "X"], "Y", 3)
            gap_cut |= any(
                isinstance(node, Split) and node.feature == "X" and node.threshold == 2.0
                for node, _ in iter_nodes(tree)
            )
        assert gap_cut

    def test_binned_ordinals(self):
        ds = binned_cohort()
        for feats in (
            ["AGE_BIN", "PF_BIN", "BUN_BIN"],
            ["AGE_BIN", "PF_BIN", "BUN_BIN", "COPD", "CREATININE"],
            ["MYALGIA", "PF_BIN", "AGE", "BUN_BIN"],
        ):
            view = complete_cases(ds, [*feats, "OUTCOME"])
            self.same_as_reference(view, feats, "OUTCOME")
            splits = [n for n, _ in iter_nodes(fit_tree(view, feats, "OUTCOME", 6)) if isinstance(n, Split)]
            assert any(n.feature.endswith("_BIN") and n.threshold % 1 == 0.5 for n in splits)

    def test_all_categorical_all_continuous_and_no_features(self):
        ds = make_clinical_synth(4)[0]
        categorical = ["COPD", "MYALGIA", "SMOKE_EXYN", "DIARRHEA"]
        continuous = ["AGE", "PF", "CREATININE"]
        assert all(ds.schema_for(f).is_categorical for f in categorical)
        assert not any(ds.schema_for(f).is_categorical for f in continuous)
        for feats in (categorical, continuous, []):
            view = complete_cases(ds, [*feats, "OUTCOME"])
            self.same_as_reference(view, feats, "OUTCOME")

    def test_two_folds_and_pure_roots(self):
        # one class-0 row: the training rows of the fold that tests it are
        # all class 1, so that fold's root is a leaf; one class only: every
        # root is a leaf
        rng = np.random.default_rng(73)
        for y in (np.r_[0, np.ones(29)], np.ones(30), np.zeros(30)):
            ds = numeric_dataset({"X": rng.normal(size=30), "B": rng.integers(0, 2, 30), "Y": y},
                                 binary=("B", "Y"))
            self.same_as_reference(ds.view(), ["X", "B"], "Y", ks=(2, 3, 5), depths=(1, 3))

    def test_deep_trees_store_only_the_nodes_made(self):
        # labels alternating along X: Gini peels the path one or two rows at
        # a time, 40 splits deep, so a grower that kept 2^depth node slots
        # per level could not finish
        ds = numeric_dataset({"X": np.arange(64.0), "Y": np.arange(64) % 2})
        tree = fit_tree(ds.view(), ["X"], "Y", max_depth=40)
        assert tree == reference_fit_tree(ds.view(), ["X"], "Y", max_depth=40)
        assert tree_depth(tree) == 40 and sum(1 for _ in iter_nodes(tree)) < 200
        args = (ds.view(), ["X"], "Y", 4, 40, 3)
        assert kfold_cv(*args) == reference_kfold_cv(*args)


class TestPredict:
    def test_leaf_only_tree(self):
        leaf = Leaf(class_counts=(3, 1), predicted=0)
        assert predict_matrix(leaf, np.empty((1, 0)), {}).tolist() == [0]

    def test_boundary_value_goes_left(self):
        tree = Split(
            feature="X",
            threshold=0.5,
            left=Leaf((1, 0), 0),
            right=Leaf((0, 1), 1),
            class_counts=(1, 1),
        )
        X = np.array([[0.5], [0.5000001]])
        assert predict_matrix(tree, X, {"X": 0}).tolist() == [0, 1]

    def test_missing_feature(self):
        tree = Split("X", 0.5, Leaf((1, 0), 0), Leaf((0, 1), 1), (1, 1))
        with pytest.raises(KeyError):
            predict_matrix(tree, np.array([[1.0]]), {"Z": 0})

    def test_matches_hand_walked_traversal(self):
        rng = np.random.default_rng(31)
        n = 150
        ds = numeric_dataset(
            {
                "X1": rng.normal(size=n),
                "X2": rng.normal(size=n),
                "Y": rng.integers(0, 2, size=n),
            }
        )
        tree = fit_tree(ds.view(), ["X1", "X2"], "Y", max_depth=4)

        def walk(node, row):
            while isinstance(node, Split):
                go_left = row[node.feature] <= node.threshold
                node = node.left if go_left else node.right
            return node.predicted

        X = ds.view().matrix(["X1", "X2"])
        preds = predict_matrix(tree, X, {"X1": 0, "X2": 1})
        for i in range(n):
            assert preds[i] == walk(tree, {"X1": X[i, 0], "X2": X[i, 1]})


class TestEvaluate:
    def test_perfect_predictions(self):
        ds = numeric_dataset({"X": [0.0, 1.0], "Y": [0, 1]})
        tree = fit_tree(ds.view(), ["X"], "Y", max_depth=1)
        m = evaluate(tree, ds.view(), "Y")
        assert (m.sensitivity, m.specificity, m.f1, m.accuracy) == (1, 1, 1, 1)

    def test_all_recovery_predictor_on_cohort_margins(self):
        y = [0] * 71 + [1] * 194
        ds = numeric_dataset({"X": np.zeros(265), "Y": y})
        tree = Leaf(class_counts=(71, 194), predicted=1)
        m = evaluate(tree, ds.view(), "Y")
        assert m.sensitivity == 0.0
        assert m.specificity == 1.0
        assert abs(m.accuracy - 194 / 265) < 1e-12
        assert abs(m.accuracy - 0.732) < 5e-4

    def test_metric_identities_on_random_counts(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            tp, fn, tn, fp = (int(v) for v in rng.integers(0, 40, 4))
            if tp + fn + tn + fp == 0:
                continue
            m = Metrics.from_counts(tp, fn, tn, fp)
            n = tp + fn + tn + fp
            assert abs(m.accuracy - (tp + tn) / n) < 1e-12
            if 2 * tp + fp + fn:
                assert abs(m.f1 - 2 * tp / (2 * tp + fp + fn)) < 1e-12
            if tp + fn:
                assert abs(m.sensitivity - tp / (tp + fn)) < 1e-12
            if tn + fp:
                assert abs(m.specificity - tn / (tn + fp)) < 1e-12

    def test_outcome_codes_above_one_count_as_recovery(self, cohort):
        # an ordinal outcome: fit_tree trains death (code 0) against every
        # other code, and evaluate must count those rows as recoveries too
        y = cohort.coded("OUTCOME").copy()
        recoveries = np.nonzero(y == 1)[0]
        y[recoveries[::2]] = 2
        schema = [
            ColumnSchema(c.name, "ordinal", c.category, levels=("0", "1", "2"))
            if c.name == "OUTCOME" else c
            for c in cohort.schema
        ]
        columns = {c: cohort.coded(c) for c in cohort.column_names}
        ordinal = Dataset(schema, {**columns, "OUTCOME": y})
        view = complete_cases(ordinal, [*COHORT_FEATURES, "OUTCOME"])
        binary_view = complete_cases(cohort, [*COHORT_FEATURES, "OUTCOME"])
        tree = fit_tree(view, COHORT_FEATURES, "OUTCOME", max_depth=3)
        assert tree == fit_tree(binary_view, COHORT_FEATURES, "OUTCOME", max_depth=3)
        m = evaluate(tree, view, "OUTCOME")
        assert m.tp + m.fn + m.tn + m.fp == view.n_rows
        assert m == evaluate(tree, binary_view, "OUTCOME")


class TestKfoldCv:
    def test_separable_data_scores_one(self):
        rng = np.random.default_rng(41)
        n = 100
        x = np.concatenate([rng.normal(-3, 0.5, n // 2), rng.normal(3, 0.5, n // 2)])
        y = np.array([0] * (n // 2) + [1] * (n // 2))
        ds = numeric_dataset({"X": x, "Y": y})
        m = kfold_cv(ds.view(), ["X"], "Y", k=10, max_depth=2, seed=5)
        assert m.accuracy == 1.0

    def test_noise_labels_near_half(self):
        accs = []
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            ds = numeric_dataset(
                {
                    "X1": rng.normal(size=200),
                    "X2": rng.normal(size=200),
                    "Y": np.tile([0, 1], 100),
                }
            )
            accs.append(
                kfold_cv(ds.view(), ["X1", "X2"], "Y", k=10, max_depth=4, seed=seed).accuracy
            )
        assert abs(float(np.mean(accs)) - 0.5) < 0.1

    def test_seed_determinism(self):
        rng = np.random.default_rng(43)
        ds = numeric_dataset({"X": rng.normal(size=60), "Y": rng.integers(0, 2, 60)})
        m1 = kfold_cv(ds.view(), ["X"], "Y", k=5, max_depth=3, seed=11)
        m2 = kfold_cv(ds.view(), ["X"], "Y", k=5, max_depth=3, seed=11)
        assert m1 == m2

    def test_fold_balance_and_stratification(self):
        from causaltab.tree import _stratified_folds

        rng = np.random.default_rng(47)
        y = np.array([0] * 71 + [1] * 194)
        folds = _stratified_folds(y, 10, rng)
        sizes = [int((folds == f).sum()) for f in range(10)]
        assert max(sizes) - min(sizes) <= 1
        per_class = [int(((folds == f) & (y == 0)).sum()) for f in range(10)]
        assert max(per_class) - min(per_class) <= 1

    def test_too_few_rows(self):
        ds = numeric_dataset({"X": [1.0, 2.0], "Y": [0, 1]})
        with pytest.raises(TooFewRowsError):
            kfold_cv(ds.view(), ["X"], "Y", k=5, max_depth=1, seed=0)

    def test_ordinal_outcome_scores_every_row_once(self, cohort):
        # SMOKE_EXYN has three codes; the folds stratify code 0 against the
        # other two, as fit_tree trains, so every row lands in one fold
        view = complete_cases(cohort, ["AGE", "PF", "SMOKE_EXYN"])
        assert set(view.coded("SMOKE_EXYN").tolist()) == {0.0, 1.0, 2.0}
        first = kfold_cv(view, ["AGE", "PF"], "SMOKE_EXYN", k=10, max_depth=3, seed=1)
        second = kfold_cv(view, ["AGE", "PF"], "SMOKE_EXYN", k=10, max_depth=3, seed=1)
        assert first.tp + first.fn + first.tn + first.fp == view.n_rows
        assert first == second
        assert first == reference_kfold_cv(view, ["AGE", "PF"], "SMOKE_EXYN", 10, 3, 1)

    def test_folds_label_every_code(self):
        from causaltab.tree import _stratified_folds

        y = np.array([0] * 7 + [1] * 5 + [2] * 9 + [3] * 2)
        folds = _stratified_folds(y, 4, np.random.default_rng(3))
        assert np.bincount(folds, minlength=4).tolist() == [6, 6, 6, 5]
        assert np.bincount(folds[y == 0], minlength=4).tolist() == [2, 2, 2, 1]

    def test_binary_folds_keep_their_labels(self):
        # stratifying code 0 against every other code gives a binary
        # outcome the members, and so the folds, it had before
        from causaltab.tree import _stratified_folds

        y = np.random.default_rng(5).integers(0, 2, 97)
        folds = _stratified_folds(y, 10, np.random.default_rng(59))
        rng = np.random.default_rng(59)
        expected = np.empty(97, dtype=np.int64)
        offset = 0
        for cls in (0, 1):
            members = np.nonzero(y == cls)[0]
            members = members[rng.permutation(members.size)]
            expected[members] = (np.arange(members.size) + offset) % 10
            offset += members.size % 10
        assert folds.tolist() == expected.tolist()


class TestKfoldCvErrors:
    """Each bad input raises its error before any fold's tree is fit."""

    @staticmethod
    def error(monkeypatch, view, features):
        fits = TestCallStructure.record(monkeypatch, "fit_tree")
        with pytest.raises((IncompleteViewError, UnknownColumnError, TooFewRowsError)) as err:
            kfold_cv(view, features, "Y", k=5, max_depth=3, seed=0)
        assert fits == []
        return type(err.value), str(err.value)

    @staticmethod
    def table(**holes):
        rng = np.random.default_rng(61)
        cols = {"X": rng.normal(size=20), "Z": rng.normal(size=20), "Y": np.tile([0.0, 1.0], 10)}
        for name, row in holes.items():
            cols[name][row] = np.nan
        return numeric_dataset(cols)

    def test_missing_feature_cell(self, monkeypatch):
        view = self.table(Z=13).view()
        assert self.error(monkeypatch, view, ["X", "Z"]) == (
            IncompleteViewError, "missing cells in columns ['Z']; take complete cases first"
        )

    def test_feature_outside_the_view(self, monkeypatch):
        view = complete_cases(self.table(), ["X", "Y"])
        assert self.error(monkeypatch, view, ["X", "Z"]) == (
            UnknownColumnError, "column 'Z' not selected in view"
        )

    def test_missing_outcome_cell(self, monkeypatch):
        view = self.table(Y=4).view()
        assert self.error(monkeypatch, view, ["X"]) == (
            IncompleteViewError, "missing cells in columns ['Y']; take complete cases first"
        )

    @pytest.mark.parametrize(
        "labels, message",
        [
            # the last fold has no test rows
            (lambda n, k: np.arange(n) % (k - 1), "fold 4 is empty with k=5, n=20"),
            # the first fold takes every row, so its training rows are empty
            (lambda n, k: np.zeros(n, dtype=np.int64), "fold 0 is empty with k=5, n=20"),
        ],
        ids=["no-test-rows", "no-training-rows"],
    )
    def test_empty_fold(self, monkeypatch, labels, message):
        import causaltab.tree as tree_module

        monkeypatch.setattr(tree_module, "_stratified_folds", lambda y, k, rng: labels(y.size, k))
        assert self.error(monkeypatch, self.table().view(), ["X"]) == (TooFewRowsError, message)


def cohort_with_noise(seed=0, n=200):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    cols = {"Y": y}
    cols["S1"] = y + 0.4 * rng.normal(size=n)
    cols["S2"] = -y + 0.4 * rng.normal(size=n)
    for j in range(6):
        cols[f"N{j}"] = rng.normal(size=n)
    return numeric_dataset(cols)


class TestPermutationBaseline:
    def test_degenerate_pool_concentrates_on_causal_metrics(self):
        ds = cohort_with_noise()
        feats = ["S1", "S2"]
        view = complete_cases(ds, [*feats, "Y"])
        result = permutation_baseline(
            ds, feats, "Y", n_features=2, n_trials=3, k=5, max_depth=3,
            target_n=view.n_rows, seed=9,
        )
        assert all(t.features == ("S1", "S2") for t in result.trials)
        accs = {t.metrics.accuracy for t in result.trials}
        assert len(accs) <= 2  # only CV shuffling varies across trials

    def test_exhausted_draws(self):
        ds = cohort_with_noise()
        with pytest.raises(ExhaustedDrawsError):
            permutation_baseline(
                ds, ["S1", "S2", "N0"], "Y", n_features=2, n_trials=1, k=5,
                max_depth=3, target_n=10, seed=0,
            )

    def test_deterministic_across_calls(self):
        ds = cohort_with_noise()
        pool = [c for c in ds.column_names if c != "Y"]
        kwargs = dict(n_features=3, n_trials=4, k=5, max_depth=3,
                      target_n=200, seed=21)
        r1 = permutation_baseline(ds, pool, "Y", **kwargs)
        r2 = permutation_baseline(ds, pool, "Y", **kwargs)
        assert r1 == r2

    def test_histogram_counts_sum_to_trials(self):
        ds = cohort_with_noise()
        pool = [c for c in ds.column_names if c != "Y"]
        result = permutation_baseline(
            ds, pool, "Y", n_features=3, n_trials=8, k=5, max_depth=3,
            target_n=200, seed=2,
        )
        hist = result.histogram()
        assert sum(c for _, _, c in hist) == 8

    def test_histogram_counts_a_top_rate_just_above_a_bin_edge(self):
        # 1 - 0.6299999999999999 is 0.3700000000000001, a rounding error
        # above the edge 37 * 0.01 == 0.37
        accuracies = (0.95, 0.8, 0.6299999999999999)
        result = PermutationResult(
            tuple(
                PermutationTrial(("A",), 100, Metrics(0.5, 0.5, 0.5, acc, 1, 1, 1, 1))
                for acc in accuracies
            ),
            100,
        )
        top = result.misclassification().max()
        assert top == 0.3700000000000001
        hist = result.histogram()
        assert sum(c for _, _, c in hist) == 3
        assert hist[-1][0] < top <= hist[-1][1]


class TestNoCyclicGarbage:
    """A fit, its evaluation and a CV run are freed by reference counting alone."""

    @staticmethod
    def garbage_after(work) -> int:
        gc.collect()
        gc.disable()
        try:
            work()
            return gc.collect()
        finally:
            gc.enable()

    def test_fit_and_evaluate(self, cohort):
        view = complete_cases(cohort, [*COHORT_FEATURES, "OUTCOME"])

        def work():
            evaluate(fit_tree(view, COHORT_FEATURES, "OUTCOME", 4), view, "OUTCOME")

        assert self.garbage_after(work) == 0

    def test_kfold_cv(self, cohort):
        view = complete_cases(cohort, [*COHORT_FEATURES, "OUTCOME"])
        assert self.garbage_after(
            lambda: kfold_cv(view, COHORT_FEATURES, "OUTCOME", k=10, max_depth=4, seed=1)
        ) == 0


class TestCallStructure:
    """Fits and draws go through the tree module's ``fit_tree`` and ``complete_cases``."""

    @staticmethod
    def record(monkeypatch, name):
        import causaltab.tree as tree_module

        calls = []
        real = getattr(tree_module, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((args, result))
            return result

        monkeypatch.setattr(tree_module, name, wrapper)
        return calls

    def test_kfold_cv_fits_one_tree_per_fold(self, monkeypatch):
        fits = self.record(monkeypatch, "fit_tree")
        kfold_cv(cohort_with_noise().view(), ["S1", "N0"], "Y", k=7, max_depth=3, seed=0)
        assert len(fits) == 7

    def test_kfold_cv_reads_its_view_once(self, monkeypatch):
        # one read of the outcome codes and one of the feature matrix serve
        # the folds, their presort and their scores
        reads = []
        real = DatasetView.matrix

        def matrix(view, columns=None):
            reads.append(list(columns))
            return real(view, columns)

        monkeypatch.setattr(DatasetView, "matrix", matrix)
        kfold_cv(cohort_with_noise().view(), ["S1", "N0"], "Y", k=7, max_depth=3, seed=0)
        assert reads == [["Y"], ["S1", "N0"]]

    def test_permutation_baseline_checks_each_draw_once(self, monkeypatch):
        full = cohort_with_noise()
        cols = {c: full.coded(c).copy() for c in full.column_names}
        cols["N0"][::2] = np.nan  # draws with N0 miss the row target
        ds = numeric_dataset(cols)
        pool = [c for c in ds.column_names if c != "Y"]
        draws = self.record(monkeypatch, "complete_cases")
        fits = self.record(monkeypatch, "fit_tree")
        result = permutation_baseline(
            ds, pool, "Y", n_features=3, n_trials=6, k=5, max_depth=3, target_n=200, seed=4,
        )
        kept = [
            tuple(args[1][:-1]) for args, view in draws if abs(view.n_rows - 200) <= 0.1 * 200
        ]
        assert kept == [t.features for t in result.trials]
        assert len(draws) > len(kept)  # some draws were rejected, each checked once
        assert len(fits) == 6 * 5

    def test_exhausted_trial_draws_the_whole_budget(self, monkeypatch):
        draws = self.record(monkeypatch, "complete_cases")
        with pytest.raises(ExhaustedDrawsError):
            permutation_baseline(
                cohort_with_noise(), ["S1", "S2", "N0"], "Y", n_features=2, n_trials=1, k=5,
                max_depth=3, target_n=10, seed=0,
            )
        assert len(draws) == RETRY_BUDGET


class TestTreeDot:
    def test_contains_counts_question_and_fills(self):
        ds = numeric_dataset(
            {"A": [0, 0, 1, 1, 1], "X": [1.0, 2, 3, 4, 5], "Y": [0, 0, 1, 1, 1]},
            binary=("A", "Y"),
        )
        tree = fit_tree(ds.view(), ["A", "X"], "Y", max_depth=2)
        text = tree_to_dot(tree, ds.schema_for)
        assert "subjects" in text
        assert "fillcolor" in text
        assert "yes" in text and "no" in text
        assert tree_features(tree) <= {"A", "X"}
