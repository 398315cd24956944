import warnings

import numpy as np
import pytest

from causaltab.data import ColumnSchema, Dataset
from causaltab.discovery import LearnConfig, run_fci
from causaltab.effects import (
    annotate_strengths,
    effect_table,
    enumerate_parent_sets,
    estimate_effect,
)
from causaltab.errors import NotAdjacentError, UnknownNodeError
from causaltab.graph import ARROW, TAIL, MixedGraph

from oracles import (
    cpdag_of_class,
    group_dags_by_class,
    parent_sets_of_class,
    sample_sem,
    sem_from_edges,
)


def cpdag_graph(directed, undirected, names):
    g = MixedGraph(names)
    for s, t in directed:
        g.add_directed_edge(s, t)
    for u, v in undirected:
        g.add_edge(u, v)
    return g


class TestEnumerateParentSets:
    def test_two_arrow_in_neighbors_give_single_set(self):
        g = MixedGraph(["p1", "p2", "x"])
        g.add_directed_edge("p1", "x")
        g.add_directed_edge("p2", "x")
        assert enumerate_parent_sets(g, "x") == [frozenset({"p1", "p2"})]

    def test_single_circle_edge_gives_both_orientations(self):
        g = MixedGraph(["x", "y"])
        g.add_edge("x", "y")
        assert set(enumerate_parent_sets(g, "x")) == {frozenset(), frozenset({"y"})}

    def test_nonadjacent_circle_neighbors_cannot_both_be_parents(self):
        g = MixedGraph(["y", "x", "z"])
        g.add_edge("x", "y")
        g.add_edge("x", "z")
        sets = set(enumerate_parent_sets(g, "x"))
        assert sets == {frozenset(), frozenset({"y"}), frozenset({"z"})}

    def test_adjacent_circle_neighbors_can_both_be_parents(self):
        g = MixedGraph(["y", "x", "z"])
        g.add_edge("x", "y")
        g.add_edge("x", "z")
        g.add_edge("y", "z")
        sets = set(enumerate_parent_sets(g, "x"))
        assert frozenset({"y", "z"}) in sets

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            enumerate_parent_sets(MixedGraph(["a"]), "b")

    def test_matches_dag_extension_oracle_on_4_node_classes(self):
        names = ["a", "b", "c", "d"]
        for (skeleton, vstructs), members in group_dags_by_class(names).items():
            directed, undirected = cpdag_of_class(members)
            g = cpdag_graph(directed, undirected, names)
            for x in names:
                ours = set(enumerate_parent_sets(g, x))
                oracle = parent_sets_of_class(members, x)
                assert ours == oracle, (skeleton, x)


class TestEstimateEffect:
    def test_two_node_sem_recovers_standardized_coefficient(self):
        sem = sem_from_edges([("x", "y", 0.8)])
        ds = sample_sem(sem, 5000, seed=1)
        g = MixedGraph(["x", "y"])
        g.add_directed_edge("x", "y")
        est = estimate_effect(ds.view(), g, "x", "y")
        assert len(est.per_dag_effects) == 1
        assert abs(est.mean_effect - 0.8 / np.sqrt(1.64)) < 0.05

    def test_circle_edge_averages_zero_for_reverse_orientation(self):
        sem = sem_from_edges([("x", "y", 0.8)])
        ds = sample_sem(sem, 5000, seed=2)
        g = MixedGraph(["x", "y"])
        g.add_edge("x", "y")
        est = estimate_effect(ds.view(), g, "x", "y")
        assert len(est.per_dag_effects) == 2
        assert 0.0 in est.per_dag_effects

    def test_confounded_adjustment_recovers_direct_effect(self):
        # x <- z -> y with x -> y: adjusting for z recovers the direct
        # standardized coefficient; the unadjusted regression does not
        a, b, c = 1.0, 1.0, 0.5
        sem = sem_from_edges([("z", "x", a), ("z", "y", b), ("x", "y", c)])
        ds = sample_sem(sem, 20_000, seed=3)
        sd_x = np.sqrt(a**2 + 1)
        sd_y = np.sqrt((b + c * a) ** 2 + c**2 + 1)
        truth = c * sd_x / sd_y
        g = MixedGraph(["z", "x", "y"])
        g.add_directed_edge("z", "x")
        g.add_directed_edge("z", "y")
        g.add_directed_edge("x", "y")
        est = estimate_effect(ds.view(), g, "x", "y")
        assert abs(est.mean_effect - truth) < 0.05
        # unadjusted estimate is confounded away from the truth
        g0 = MixedGraph(["z", "x", "y"])
        g0.add_directed_edge("z", "x")
        g0.add_directed_edge("z", "y")
        g0.add_edge("x", "y", mark_u=TAIL, mark_v=ARROW)
        g0.set_mark("z", "x", at="x", mark=TAIL)
        g0.set_mark("z", "x", at="z", mark=ARROW)  # x -> z: z no longer a parent of x
        unadjusted = estimate_effect(ds.view(), g0, "x", "y")
        assert abs(unadjusted.mean_effect - truth) > 0.1

    def test_not_adjacent(self):
        ds = sample_sem(sem_from_edges([("x", "y", 1.0)], nodes=["x", "y", "z"]), 100, seed=4)
        g = MixedGraph(["x", "y", "z"])
        g.add_directed_edge("x", "y")
        with pytest.raises(NotAdjacentError):
            estimate_effect(ds.view(), g, "x", "z")

    def test_mean_equals_common_value_when_all_equal(self):
        sem = sem_from_edges([("x", "y", 0.7)])
        ds = sample_sem(sem, 1000, seed=5)
        g = MixedGraph(["x", "y"])
        g.add_directed_edge("x", "y")
        est = estimate_effect(ds.view(), g, "x", "y")
        assert est.mean_effect == est.per_dag_effects[0]

    def test_affine_rescaling_invariance(self):
        sem = sem_from_edges([("x", "y", 0.6), ("z", "y", 0.4)])
        ds = sample_sem(sem, 2000, seed=6)
        g = MixedGraph(["x", "y", "z"])
        g.add_directed_edge("x", "y")
        g.add_directed_edge("z", "y")
        base = estimate_effect(ds.view(), g, "x", "y").mean_effect
        scaled_cols = {
            "x": ds.coded("x") * 10.0,
            "y": ds.coded("y"),
            "z": ds.coded("z"),
        }
        ds2 = Dataset(
            [ColumnSchema(n, "continuous", "synthetic") for n in ("x", "y", "z")],
            scaled_cols,
        )
        rescaled = estimate_effect(ds2.view(), g, "x", "y").mean_effect
        assert abs(base - rescaled) < 1e-10

    def test_direction_matters(self):
        sem = sem_from_edges([("x", "y", 0.8)])
        ds = sample_sem(sem, 5000, seed=7)
        g = MixedGraph(["x", "y"])
        g.add_edge("x", "y")
        fwd = estimate_effect(ds.view(), g, "x", "y").mean_effect
        rev = estimate_effect(ds.view(), g, "y", "x").mean_effect
        assert fwd != rev

    def test_bidirected_edge_neighbor_is_a_parent(self):
        sem = sem_from_edges([("x", "y", 0.8)])
        ds = sample_sem(sem, 500, seed=8)
        g = MixedGraph(["x", "y"])
        g.add_edge("x", "y", mark_u=ARROW, mark_v=ARROW)
        assert enumerate_parent_sets(g, "x") == [frozenset({"y"})]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_effect(ds.view(), g, "x", "y")


class TestAnnotateStrengths:
    def test_positive_coefficient_gives_positive_strength(self):
        sem = sem_from_edges([("x", "y", 0.9)])
        ds = sample_sem(sem, 3000, seed=9)
        g = MixedGraph(["x", "y"])
        g.add_directed_edge("x", "y")
        out = annotate_strengths(g, effect_table(ds.view(), g, outcome="y"))
        assert out.edge("x", "y").strength > 0

    def test_engineered_negative_age_outcome_strength(self):
        rng = np.random.default_rng(10)
        n = 4000
        age = rng.standard_normal(n)
        latent = -0.8 * age + 0.6 * rng.standard_normal(n)
        outcome = (latent > np.quantile(latent, 0.268)).astype(float)
        ds = Dataset(
            [
                ColumnSchema("AGE", "continuous", "demographic"),
                ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
            ],
            {"AGE": age, "OUTCOME": outcome},
        )
        g = MixedGraph(["AGE", "OUTCOME"])
        g.add_directed_edge("AGE", "OUTCOME")
        out = annotate_strengths(g, effect_table(ds.view(), g, outcome="OUTCOME"))
        assert out.edge("AGE", "OUTCOME").strength < 0

    def test_zero_coefficient_edge_has_small_strength(self):
        sem = sem_from_edges([("x", "y", 1.0)], nodes=["x", "y", "w"])
        ds = sample_sem(sem, 20_000, seed=11)
        g = MixedGraph(["x", "y", "w"])
        g.add_directed_edge("x", "y")
        g.add_directed_edge("w", "y")  # forced edge with zero true effect
        out = annotate_strengths(g, effect_table(ds.view(), g, outcome="y"))
        assert abs(out.edge("w", "y").strength) < 0.05

    def test_feature_feature_edge_displays_larger_direction(self):
        sem = sem_from_edges([("x", "y", 0.8)])
        ds = sample_sem(sem, 5000, seed=12)
        g = MixedGraph(["x", "y"])
        g.add_edge("x", "y")
        records = effect_table(ds.view(), g, outcome=None)
        assert len(records) == 1
        shown = records[0]["displayed"]
        reverse = records[0]["reverse"]
        assert abs(shown["mean_effect"]) >= abs(reverse["mean_effect"])

    def test_outcome_edge_directed_feature_to_outcome(self):
        sem = sem_from_edges([("x", "y", 0.8)])
        ds = sample_sem(sem, 2000, seed=13)
        g = MixedGraph(["x", "y"])
        g.add_directed_edge("x", "y")
        records = effect_table(ds.view(), g, outcome="y")
        assert records[0]["displayed"]["source"] == "x"
        assert records[0]["displayed"]["target"] == "y"
        assert "reverse" not in records[0]


def test_fci_and_effect_table_standardize_a_mixed_view_once(monkeypatch):
    # the Fisher-z queries of run_fci and the effect regressions read one
    # standardized matrix of the view, built from one whole-view matrix
    from causaltab.data import DatasetView

    built = []
    real = DatasetView.matrix

    def counted(view, columns=None):
        built.append(columns)
        return real(view, columns)

    monkeypatch.setattr(DatasetView, "matrix", counted)
    rng = np.random.default_rng(12)
    n = 500
    x = rng.standard_normal(n)
    b = (x + rng.standard_normal(n) > 0).astype(float)
    y = x + b + rng.standard_normal(n)
    ds = Dataset(
        [
            ColumnSchema("X", "continuous", "c"),
            ColumnSchema("B", "binary", "c", levels=("0", "1")),
            ColumnSchema("Y", "continuous", "c"),
        ],
        {"X": x, "B": b, "Y": y},
    )
    view = ds.view()
    fci = run_fci(view, LearnConfig())
    table = effect_table(view, fci.graph, outcome="Y")
    assert fci.graph.n_edges and len(table) == fci.graph.n_edges
    assert built == [None]
