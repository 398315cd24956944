import itertools

import numpy as np
import pytest

from causaltab.data import complete_cases
from causaltab.discovery import LearnConfig, learn_skeleton, oracle_ci_test
from causaltab.errors import CyclicGraphError
from causaltab.graph import MixedGraph, topological_order
from causaltab.stats import point_biserial
from causaltab.synth import clinical_truth_graph, make_clinical_synth

from oracles import (
    LinearSEM,
    NodeMismatchError,
    d_separated,
    directed_edges,
    dsep_by_paths,
    enumerate_dags,
    sample_sem,
    sem_from_edges,
    shd,
)


class TestSampleSem:
    def test_single_edge_correlation_matches_closed_form(self):
        sem = sem_from_edges([("x", "y", 1.0)])
        ds = sample_sem(sem, 50_000, seed=1)
        r = np.corrcoef(ds.coded("x"), ds.coded("y"))[0, 1]
        assert abs(r - 1 / np.sqrt(2)) < 0.02

    def test_empty_sem_uncorrelated(self):
        sem = sem_from_edges([], nodes=["a", "b", "c"])
        ds = sample_sem(sem, 50_000, seed=2)
        for u, v in itertools.combinations(["a", "b", "c"], 2):
            assert abs(np.corrcoef(ds.coded(u), ds.coded(v))[0, 1]) < 0.02

    def test_seed_determinism(self):
        sem = sem_from_edges([("x", "y", 0.5), ("y", "z", -1.0)])
        d1 = sample_sem(sem, 100, seed=7)
        d2 = sample_sem(sem, 100, seed=7)
        for c in d1.column_names:
            np.testing.assert_array_equal(d1.coded(c), d2.coded(c))

    def test_cycle_rejected(self):
        g3 = MixedGraph(["a", "b", "c"])
        g3.add_directed_edge("a", "b")
        g3.add_directed_edge("b", "c")
        g3.add_directed_edge("c", "a")
        with pytest.raises(CyclicGraphError):
            LinearSEM(dag=g3, coefficients={("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1},
                      noise_sd={"a": 1, "b": 1, "c": 1})

    def test_covariance_of_chain_matches_closed_form(self):
        sem = sem_from_edges([("x", "z", 1.0), ("z", "y", 1.0)])
        ds = sample_sem(sem, 50_000, seed=3)
        # var(z)=2, cov(x,z)=1, cov(x,y)=1, var(y)=3
        assert abs(np.cov(ds.coded("x"), ds.coded("z"))[0, 1] - 1.0) < 0.05
        assert abs(np.var(ds.coded("y"), ddof=1) - 3.0) < 0.1


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        g = MixedGraph(["X", "Z", "Y"])
        g.add_directed_edge("X", "Z")
        g.add_directed_edge("Z", "Y")
        assert d_separated(g, "X", "Y", ("Z",))
        assert not d_separated(g, "X", "Y", ())

    def test_collider_opens_when_conditioned(self):
        g = MixedGraph(["X", "Z", "Y"])
        g.add_directed_edge("X", "Z")
        g.add_directed_edge("Y", "Z")
        assert d_separated(g, "X", "Y", ())
        assert not d_separated(g, "X", "Y", ("Z",))

    def test_descendant_of_collider_opens_path(self):
        g = MixedGraph(["X", "Z", "Y", "W"])
        g.add_directed_edge("X", "Z")
        g.add_directed_edge("Y", "Z")
        g.add_directed_edge("Z", "W")
        assert not d_separated(g, "X", "Y", ("W",))

    def test_exhaustive_small_dags_match_path_oracle(self):
        names = ["a", "b", "c", "d"]
        for edges in enumerate_dags(names):
            g = MixedGraph(names)
            for s, t in edges:
                g.add_directed_edge(s, t)
            for x, y in itertools.combinations(names, 2):
                rest = [n for n in names if n not in (x, y)]
                for r in range(3):
                    for cond in itertools.combinations(rest, r):
                        assert d_separated(g, x, y, cond) == dsep_by_paths(
                            edges, names, x, y, cond
                        )

    def test_partial_marks_rejected(self):
        g = MixedGraph(["a", "b"])
        g.add_edge("a", "b")  # circle marks, not a directed edge
        with pytest.raises(CyclicGraphError):
            d_separated(g, "a", "b", ())


class TestShd:
    def test_identical_graphs(self):
        g = clinical_truth_graph()
        assert shd(g, g) == 0

    def test_one_extra_edge(self):
        g1 = MixedGraph(["a", "b", "c"])
        g1.add_edge("a", "b")
        g2 = g1.copy()
        g2.add_edge("b", "c")
        assert shd(g1, g2) == 1

    def test_mark_changes_counted_per_endpoint(self):
        g1 = MixedGraph(["a", "b"])
        g1.add_edge("a", "b")  # circle-circle
        g2 = MixedGraph(["a", "b"])
        g2.add_directed_edge("a", "b")  # tail-arrow
        assert shd(g1, g2) == 2

    def test_node_mismatch(self):
        with pytest.raises(NodeMismatchError):
            shd(MixedGraph(["a"]), MixedGraph(["b"]))

    def test_random_pairs_match_edit_count_oracle(self):
        rng = np.random.default_rng(33)
        names = [f"v{i}" for i in range(6)]
        marks = ("circle", "arrow", "tail")

        def random_graph():
            g = MixedGraph(names)
            for i in range(6):
                for j in range(i + 1, 6):
                    if rng.random() < 0.4:
                        g.add_edge(
                            names[i],
                            names[j],
                            mark_u=marks[rng.integers(0, 3)],
                            mark_v=marks[rng.integers(0, 3)],
                        )
            return g

        def oracle(g1, g2):
            count = 0
            for i in range(6):
                for j in range(i + 1, 6):
                    u, v = names[i], names[j]
                    e1, e2 = g1.edge(u, v), g2.edge(u, v)
                    if (e1 is None) != (e2 is None):
                        count += 1
                    elif e1 is not None:
                        count += int(e1.mark_at(u) != e2.mark_at(u))
                        count += int(e1.mark_at(v) != e2.mark_at(v))
            return count

        graphs = [random_graph() for _ in range(12)]
        for g1, g2 in itertools.combinations(graphs, 2):
            assert shd(g1, g2) == oracle(g1, g2)
        # metric properties on the same sample
        for g1, g2, g3 in itertools.combinations(graphs, 3):
            assert shd(g1, g2) == shd(g2, g1)
            assert shd(g1, g3) <= shd(g1, g2) + shd(g2, g3)


class TestTopologicalOrder:
    def test_respects_edges(self):
        g = clinical_truth_graph()
        order = {n: i for i, n in enumerate(topological_order(g))}
        for s, t in directed_edges(g):
            assert order[s] < order[t]


class TestClinicalSynth:
    def test_age_pf_load_constant_matches_pilot_bisection(self):
        # the reference derivation of synth._AGE_PF_LOAD: bisection of the
        # shared AGE/PF loading until a 100k-row pilot sample's AGE
        # point-biserial correlation with the outcome hits the target
        from causaltab import synth

        lat = synth._backbone_latents(np.random.default_rng(202007), 100_000)

        def pbc_gap(load: float) -> float:
            cols = synth._backbone_columns(lat, load)
            r = point_biserial(cols[synth._OUTCOME_NAME], cols["AGE"]).effect
            return -r - synth._PBC_TARGET  # r is negative; gap is increasing in load

        lo, hi = 0.01, 1.60
        assert pbc_gap(lo) < 0 < pbc_gap(hi)
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if pbc_gap(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - synth._AGE_PF_LOAD) < 1e-12

    def test_age_and_pf_point_biserial_in_band(self):
        ds, _ = make_clinical_synth(0)
        v = complete_cases(ds, ["AGE", "OUTCOME"])
        r_age = point_biserial(
            (v.coded("OUTCOME") == 1).astype(float), v.coded("AGE")
        ).effect
        v2 = complete_cases(ds, ["PF", "OUTCOME"])
        r_pf = point_biserial(
            (v2.coded("OUTCOME") == 1).astype(float), v2.coded("PF")
        ).effect
        assert -0.51 <= r_age <= -0.41
        assert 0.41 <= r_pf <= 0.51

    def test_death_rate_in_band(self):
        ds, _ = make_clinical_synth(4)
        rate = float((ds.coded("OUTCOME") == 0).mean())
        assert 0.24 <= rate <= 0.30

    def test_seed_determinism(self):
        d1, g1 = make_clinical_synth(9)
        d2, g2 = make_clinical_synth(9)
        for c in d1.column_names:
            np.testing.assert_array_equal(
                d1.coded(c), d2.coded(c)
            )
        assert g1.to_json_dict() == g2.to_json_dict()

    def test_cohort_shape_and_schema(self):
        ds, truth = make_clinical_synth(2)
        assert ds.n_rows == 265
        assert ds.outcome_column() == "OUTCOME"
        assert set(truth.nodes) <= set(ds.column_names)
        # every truth feature within 2 hops of the outcome by construction
        from causaltab.graph import neighbors_within

        near = neighbors_within(truth, "OUTCOME", 2)
        assert near == set(truth.nodes) - {"OUTCOME"}

    def test_truth_marginals_roughly_match_declared_scales(self):
        ds, _ = make_clinical_synth(6)
        age = ds.coded("AGE")
        assert abs(age.mean() - 66.6) < 3.5
        assert abs(age.std(ddof=1) - 15.9) < 3.0

    def test_oracle_mode_recovers_truth_skeleton_from_sampled_dataset(self):
        # wiring check: with d-separation in place of statistics the
        # learned skeleton equals the truth graph's skeleton exactly
        ds, truth = make_clinical_synth(3)
        view = complete_cases(ds, list(truth.nodes))
        res = learn_skeleton(view, LearnConfig(), ci_test=oracle_ci_test(truth))
        learned = {frozenset((e.u, e.v)) for e in res.graph.edges()}
        expected = {frozenset((s, t)) for s, t in directed_edges(truth)}
        assert learned == expected
