import gc
import itertools
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from causaltab import discovery
from causaltab.data import ColumnSchema, Dataset, DatasetView, complete_cases
from causaltab.discovery import (
    LearnConfig,
    apply_orientation_rules,
    learn_skeleton,
    oracle_ci_test,
    orient_v_structures,
    possible_dsep_prune,
    possible_dsep_set,
    run_fci,
)
from causaltab.errors import (
    IncompleteViewError,
    SingularCorrelationError,
    UnknownColumnError,
)
from causaltab.graph import (
    ARROW,
    CIRCLE,
    TAIL,
    MixedGraph,
    PriorKnowledge,
    SepSetStore,
    d_separation_tester,
)
from causaltab.synth import make_clinical_synth

from oracles import (
    dag_vstructures,
    directed_edges,
    enumerate_dags,
    reference_learn_skeleton,
    reference_mixed_ci_test,
    reference_possible_dsep_prune,
    sample_sem,
    sem_from_edges,
)

REPO = Path(__file__).resolve().parents[1]


def chain_dataset(seed, n=5000):
    sem = sem_from_edges([("X", "Z", 1.0), ("Z", "Y", 1.0)])
    return sample_sem(sem, n, seed=seed)


def dummy_view(names):
    schema = [ColumnSchema(n, "continuous", "synthetic") for n in names]
    return Dataset(schema, {n: np.zeros(2) for n in names}).view()


def edge_set(g):
    return {frozenset((e.u, e.v)) for e in g.edges()}


def learned_vstructures(g):
    out = set()
    for z in g.nodes:
        for x, y in itertools.combinations(g.neighbors(z), 2):
            if g.has_edge(x, y):
                continue
            if g.mark_at(x, z, at=z) == ARROW and g.mark_at(y, z, at=z) == ARROW:
                out.add((tuple(sorted((x, y))), z))
    return out


class TestLearnSkeleton:
    def test_chain_recovery_rate(self):
        hits = 0
        for seed in range(100):
            ds = chain_dataset(seed)
            res = learn_skeleton(ds.view(), LearnConfig())
            ok = edge_set(res.graph) == {frozenset("XZ"), frozenset("ZY")}
            ok = ok and res.sepsets.get("X", "Y") == ("Z",)
            hits += ok
        assert hits >= 90

    def test_independent_pair_mostly_empty(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(500 + seed)
            ds = Dataset(
                [ColumnSchema("a", "continuous", "c"), ColumnSchema("b", "continuous", "c")],
                {"a": rng.standard_normal(5000), "b": rng.standard_normal(5000)},
            )
            res = learn_skeleton(ds.view(), LearnConfig())
            hits += res.graph.n_edges == 0
        assert hits >= 90

    def test_forbidden_edge_always_absent(self):
        pk = PriorKnowledge.from_pairs(forbidden=[("X", "Z")])
        for seed in range(5):
            res = learn_skeleton(chain_dataset(seed).view(), LearnConfig(), prior=pk)
            assert not res.graph.has_edge("X", "Z")
            assert frozenset(("X", "Z")) in res.knowledge_removed
            assert res.sepsets.get("X", "Z") == ()

    def test_required_edge_never_removed(self):
        rng = np.random.default_rng(77)
        ds = Dataset(
            [ColumnSchema("a", "continuous", "c"), ColumnSchema("b", "continuous", "c")],
            {"a": rng.standard_normal(3000), "b": rng.standard_normal(3000)},
        )
        pk = PriorKnowledge.from_pairs(required=[("a", "b")])
        res = learn_skeleton(ds.view(), LearnConfig(), prior=pk)
        assert res.graph.has_edge("a", "b")

    def test_incomplete_view_rejected(self):
        ds = Dataset(
            [ColumnSchema("a", "continuous", "c"), ColumnSchema("b", "continuous", "c")],
            {"a": np.array([1.0, np.nan, 2.0]), "b": np.array([1.0, 2.0, 3.0])},
        )
        with pytest.raises(IncompleteViewError):
            learn_skeleton(ds.view(), LearnConfig())

    def test_pc_stable_order_invariance(self):
        # permuting the column order never changes the learned adjacencies
        sem = sem_from_edges(
            [("A", "B", 1.0), ("B", "C", 0.8), ("D", "C", 1.2), ("D", "E", 1.0)]
        )
        ds = sample_sem(sem, 4000, seed=3)
        base = None
        for perm_seed in range(6):
            rng = np.random.default_rng(perm_seed)
            cols = list(ds.column_names)
            rng.shuffle(cols)
            res = learn_skeleton(ds.view(cols), LearnConfig())
            edges = edge_set(res.graph)
            if base is None:
                base = edges
            assert edges == base

    def test_tests_run_monotone_in_max_cond_size(self):
        ds = chain_dataset(11, n=2000)
        counts = [
            learn_skeleton(ds.view(), LearnConfig(max_cond_size=k)).tests_run
            for k in range(0, 4)
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_oracle_exact_on_all_small_dags(self):
        for n in (3, 4):
            names = [f"v{i}" for i in range(n)]
            view = dummy_view(names)
            for edges in enumerate_dags(names):
                dag = MixedGraph(names)
                for s, t in edges:
                    dag.add_directed_edge(s, t)
                res = learn_skeleton(view, LearnConfig(), ci_test=oracle_ci_test(dag))
                assert edge_set(res.graph) == {frozenset(e) for e in edges}
                g = orient_v_structures(res)
                assert learned_vstructures(g) == dag_vstructures(edges)


class TestOrientVStructures:
    def test_collider_from_samples(self):
        sem = sem_from_edges([("X", "Z", 1.0), ("Y", "Z", 1.0)])
        ds = sample_sem(sem, 5000, seed=21)
        res = learn_skeleton(ds.view(), LearnConfig())
        g = orient_v_structures(res)
        assert g.mark_at("X", "Z", at="Z") == ARROW
        assert g.mark_at("Y", "Z", at="Z") == ARROW

    def test_chain_not_oriented(self):
        res = learn_skeleton(chain_dataset(2).view(), LearnConfig())
        g = orient_v_structures(res)
        for e in g.edges():
            assert (e.mark_u, e.mark_v) == (CIRCLE, CIRCLE)

    def test_triangle_untouched(self):
        g = MixedGraph(["a", "b", "c"])
        for u, v in (("a", "b"), ("b", "c"), ("a", "c")):
            g.add_edge(u, v)
        res = orient_v_structures(
            type("S", (), {"graph": g, "sepsets": SepSetStore()})()
        )
        for e in res.edges():
            assert (e.mark_u, e.mark_v) == (CIRCLE, CIRCLE)


class TestPossibleDsep:
    def test_disabled_stage_is_identity(self):
        cfg = LearnConfig(do_possible_dsep=False, do_orientation=False)
        res = run_fci(chain_dataset(5).view(), cfg)
        assert res.tests_run == res.skeleton.tests_run
        assert edge_set(res.graph) == edge_set(res.skeleton.graph)

    def test_default_ci_test_built_once_per_run(self, monkeypatch):
        built = []
        original = discovery.mixed_ci_test

        def counting(view):
            built.append(view)
            return original(view)

        monkeypatch.setattr(discovery, "mixed_ci_test", counting)
        res = run_fci(chain_dataset(5).view(), LearnConfig(do_possible_dsep=True))
        assert len(built) == 1
        assert res.tests_run >= res.skeleton.tests_run

    def test_tree_graph_no_removals_with_oracle(self):
        names = ["a", "b", "c", "d", "e"]
        dag = MixedGraph(names)
        for s, t in (("a", "b"), ("b", "c"), ("b", "d"), ("d", "e")):
            dag.add_directed_edge(s, t)
        view = dummy_view(names)
        ci = oracle_ci_test(dag)
        res = learn_skeleton(view, LearnConfig(), ci_test=ci)
        g = orient_v_structures(res)
        out = possible_dsep_prune(g, res.sepsets, LearnConfig(), ci_test=ci)
        assert edge_set(out.graph) == edge_set(res.graph)

    def test_latent_structure_needs_pdsep_and_matches_margin(self):
        # Frozen from a brute-force search: adjacency search alone keeps
        # B-D although no observed-margin adjacency exists; the pd-sep
        # stage must remove it, matching the exhaustive-separation oracle.
        obs = ["A", "B", "C", "D", "E"]
        full = MixedGraph(obs)
        for s, t in (("A", "C"), ("C", "B"), ("E", "D")):
            full.add_directed_edge(s, t)
        for k, (a, b) in enumerate((("A", "E"), ("B", "E"), ("C", "D"))):
            latent = f"L{k}"
            full.add_node(latent)
            full.add_directed_edge(latent, a)
            full.add_directed_edge(latent, b)

        tester = d_separation_tester(full)
        mag_adjacency = set()
        for x, y in itertools.combinations(obs, 2):
            rest = [o for o in obs if o not in (x, y)]
            separated = any(
                tester(x, y, s)
                for r in range(len(rest) + 1)
                for s in itertools.combinations(rest, r)
            )
            if not separated:
                mag_adjacency.add(frozenset((x, y)))

        view = dummy_view(obs)
        ci = oracle_ci_test(full)
        res = learn_skeleton(view, LearnConfig(), ci_test=ci)
        assert frozenset(("B", "D")) in edge_set(res.graph) - mag_adjacency
        g = orient_v_structures(res)
        out = possible_dsep_prune(g, res.sepsets, LearnConfig(), ci_test=ci)
        assert edge_set(out.graph) == mag_adjacency

    def test_latent_benchmark_statistical_vs_oracle_agreement(self):
        # X <- L -> Y plus X -> S <- Y with L unobserved: the learned
        # adjacency at n=10000 must match the oracle run's adjacency
        full_sem = sem_from_edges(
            [("L", "X", 1.0), ("L", "Y", 1.0), ("X", "S", 1.0), ("Y", "S", 1.0)]
        )
        ds = sample_sem(full_sem, 10_000, seed=13)
        view = ds.view(["X", "Y", "S"])
        stat = run_fci(view, LearnConfig())
        oracle = run_fci(view, LearnConfig(), ci_test=oracle_ci_test(full_sem.dag))
        assert edge_set(stat.graph) == edge_set(oracle.graph)

    def test_possible_dsep_set_contains_collider_reachable_nodes(self):
        g = MixedGraph(["a", "b", "c"])
        g.add_edge("a", "b", mark_v=ARROW)
        g.add_edge("c", "b", mark_v=ARROW)
        # b is a collider on a-b-c, so c is possible-d-sep reachable from a
        assert possible_dsep_set(g, "a") == {"b", "c"}


class TestOrientationRules:
    def test_r1_directs_into_unshielded_neighbor(self):
        g = MixedGraph(["a", "b", "c"])
        g.add_edge("a", "b", mark_u=CIRCLE, mark_v=ARROW)
        g.add_edge("b", "c", mark_u=CIRCLE, mark_v=CIRCLE)
        out = apply_orientation_rules(g, SepSetStore())
        assert out.mark_at("b", "c", at="b") == TAIL
        assert out.mark_at("b", "c", at="c") == ARROW

    def test_r2_adds_arrowhead_on_chain(self):
        g = MixedGraph(["a", "b", "c"])
        g.add_edge("a", "b", mark_u=TAIL, mark_v=ARROW)
        g.add_edge("b", "c", mark_u=CIRCLE, mark_v=ARROW)
        g.add_edge("a", "c", mark_u=CIRCLE, mark_v=CIRCLE)
        out = apply_orientation_rules(g, SepSetStore())
        assert out.mark_at("a", "c", at="c") == ARROW

    def test_r3_orients_into_collider(self):
        g = MixedGraph(["a", "b", "c", "d"])
        g.add_edge("a", "b", mark_u=CIRCLE, mark_v=ARROW)
        g.add_edge("c", "b", mark_u=CIRCLE, mark_v=ARROW)
        g.add_edge("a", "d", mark_u=CIRCLE, mark_v=CIRCLE)
        g.add_edge("c", "d", mark_u=CIRCLE, mark_v=CIRCLE)
        g.add_edge("d", "b", mark_u=CIRCLE, mark_v=CIRCLE)
        out = apply_orientation_rules(g, SepSetStore())
        assert out.mark_at("d", "b", at="b") == ARROW

    def test_r4_discriminating_path_tail_branch(self):
        # path <theta, a, b, c>: a is a collider on the path and a parent
        # of c; theta is not adjacent to c; b in sepset(theta, c)
        g = MixedGraph(["theta", "a", "b", "c"])
        g.add_edge("theta", "a", mark_u=CIRCLE, mark_v=ARROW)
        g.add_edge("a", "b", mark_u=ARROW, mark_v=ARROW)
        g.add_edge("a", "c", mark_u=TAIL, mark_v=ARROW)
        g.add_edge("b", "c", mark_u=CIRCLE, mark_v=CIRCLE)
        seps = SepSetStore()
        seps.record("theta", "c", ("b",))
        out = apply_orientation_rules(g, seps)
        assert out.mark_at("b", "c", at="b") == TAIL
        assert out.mark_at("b", "c", at="c") == ARROW

    def test_r4_discriminating_path_collider_branch(self):
        g = MixedGraph(["theta", "a", "b", "c"])
        g.add_edge("theta", "a", mark_u=CIRCLE, mark_v=ARROW)
        g.add_edge("a", "b", mark_u=ARROW, mark_v=ARROW)
        g.add_edge("a", "c", mark_u=TAIL, mark_v=ARROW)
        g.add_edge("b", "c", mark_u=CIRCLE, mark_v=CIRCLE)
        seps = SepSetStore()
        seps.record("theta", "c", ())  # b not in the separating set
        out = apply_orientation_rules(g, seps)
        assert out.mark_at("b", "c", at="b") == ARROW
        assert out.mark_at("b", "c", at="c") == ARROW

    def test_fully_oriented_graph_is_fixpoint(self):
        g = MixedGraph(["a", "b", "c"])
        g.add_directed_edge("a", "b")
        g.add_directed_edge("b", "c")
        out = apply_orientation_rules(g, SepSetStore())
        assert out.to_json_dict() == g.to_json_dict()

    def test_oracle_runs_direct_edges_subset_of_truth(self):
        rng = np.random.default_rng(55)
        names = [f"v{i}" for i in range(8)]
        for _ in range(20):
            dag = MixedGraph(names)
            true_edges = set()
            for i in range(8):
                for j in range(i + 1, 8):
                    if rng.random() < 2 / 7:
                        dag.add_directed_edge(names[i], names[j])
                        true_edges.add((names[i], names[j]))
            view = dummy_view(names)
            res = run_fci(view, LearnConfig(), ci_test=oracle_ci_test(dag))
            for src, dst in directed_edges(res.graph):
                assert (src, dst) in true_edges

    def test_never_reverses_existing_arrowheads(self):
        rng = np.random.default_rng(63)
        names = [f"v{i}" for i in range(6)]
        marks = (CIRCLE, ARROW, TAIL)
        for _ in range(40):
            g = MixedGraph(names)
            for i in range(6):
                for j in range(i + 1, 6):
                    if rng.random() < 0.4:
                        g.add_edge(
                            names[i], names[j],
                            mark_u=marks[rng.integers(0, 3)],
                            mark_v=marks[rng.integers(0, 3)],
                        )
            out = apply_orientation_rules(g, SepSetStore())
            for e in g.edges():
                for node in (e.u, e.v):
                    before = e.mark_at(node)
                    after = out.edge(e.u, e.v).mark_at(node)
                    if before != CIRCLE:
                        assert after == before


def dag_of(n, edges):
    """The DAG on v0..v(n-1) with the directed ``edges`` (pairs of indices)."""
    dag = MixedGraph([f"v{i}" for i in range(n)])
    for s, t in edges:
        dag.add_directed_edge(f"v{s}", f"v{t}")
    return dag


def unsound_marks(pag, dag):
    """The PAG's (edge, endpoint) marks that contradict the DAG's ancestor relations.

    An arrowhead at x says x is no ancestor of the other end; a tail at x
    says it is one. Circles claim nothing. Returns (unsound, non-circle) counts.
    """
    descendants = {}
    for v in dag.nodes:
        seen, stack = set(), [v]
        while stack:
            for child in dag.children(stack.pop()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        descendants[v] = seen
    unsound = marked = 0
    for e in pag.edges():
        for x, y in ((e.u, e.v), (e.v, e.u)):
            mark = e.mark_at(x)
            if mark != CIRCLE:
                marked += 1
                unsound += (mark == TAIL) != (y in descendants[x])
    return unsound, marked


#: v0 is hidden; rule R4 orients v2 -> v6 along the discriminating path
#: <v4, v5, v3, v2, v6>, whose inner colliders v5 and v3 are both parents of v6
R4_DAG = dag_of(7, [(0, 3), (0, 5), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4), (2, 6),
                    (3, 6), (4, 5), (5, 6)])


@pytest.mark.parametrize("pdsep", [True, False])
def test_r4_follows_a_discriminating_path_through_two_colliders(monkeypatch, pdsep):
    found = {}
    original = discovery._find_discriminating_path

    def recorded(g, b, c):
        found[(b, c)] = original(g, b, c)
        return found[(b, c)]

    monkeypatch.setattr(discovery, "_find_discriminating_path", recorded)
    res = run_fci(
        dummy_view([f"v{i}" for i in range(1, 7)]),
        LearnConfig(do_possible_dsep=pdsep),
        ci_test=oracle_ci_test(R4_DAG),
    )
    assert found[("v2", "v6")] == ("v4", "v3")
    C, A, T = CIRCLE, ARROW, TAIL
    assert sorted((e.u, e.v, e.mark_u, e.mark_v) for e in res.graph.edges()) == [
        ("v1", "v3", C, A), ("v1", "v5", C, A), ("v1", "v6", T, A), ("v2", "v3", C, A),
        ("v2", "v4", C, C), ("v2", "v6", T, A), ("v3", "v5", A, A), ("v3", "v6", T, A),
        ("v4", "v5", C, A), ("v5", "v6", T, A),
    ]
    assert unsound_marks(res.graph, R4_DAG) == (0, 14)


def test_oracle_pags_are_sound_on_random_dags_with_hidden_nodes():
    # 200 DAGs of 4-7 nodes, of which the first 0-2 are hidden
    rng = np.random.default_rng(2024)
    total = 0
    for _ in range(200):
        n, hidden = int(rng.integers(4, 8)), int(rng.integers(0, 3))
        dag = dag_of(n, [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        view = dummy_view(list(dag.nodes[hidden:]))
        for pdsep in (True, False):
            res = run_fci(view, LearnConfig(do_possible_dsep=pdsep), ci_test=oracle_ci_test(dag))
            unsound, marked = unsound_marks(res.graph, dag)
            assert unsound == 0, (dag.to_json_dict(), hidden, pdsep)
            total += marked
    assert total > 800


def test_no_stage_asks_about_a_required_pair():
    # v4 and v6 are not adjacent in R4_DAG, so without its skip the pd-sep
    # stage would test them given subsets of v4's possible-d-sep set
    ci, answers = recording(oracle_ci_test(R4_DAG))
    prior = PriorKnowledge.from_pairs(required=[("v4", "v6")])
    res = run_fci(
        dummy_view([f"v{i}" for i in range(1, 7)]), LearnConfig(do_possible_dsep=True), prior, ci
    )
    assert res.graph.has_edge("v4", "v6")
    asked = {frozenset((x, y)) for (x, y, _), _ in answers}
    assert asked and frozenset(("v4", "v6")) not in asked


def test_run_fci_wires_stages_together():
    ds = chain_dataset(17)
    res = run_fci(ds.view(), LearnConfig())
    assert edge_set(res.graph) == {frozenset("XZ"), frozenset("ZY")}
    assert res.tests_run >= res.skeleton.tests_run


def seed1_cohort_view():
    ds, _ = make_clinical_synth(1)
    return complete_cases(ds, ds.column_names)


def wide_category_view(category):
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        from wide_table import OUTCOME, make_wide_table
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    ds = Dataset(*make_wide_table(1))
    cols = [c.name for c in ds.schema if c.category == category]
    return complete_cases(ds, [*cols, OUTCOME])


def count_kernel_calls(monkeypatch):
    """Count calls to both CI kernels at the module attributes the tracer wraps."""
    calls = {"g2": 0, "fisher_z": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(discovery, "g_squared_test", counted("g2", discovery.g_squared_test))
    monkeypatch.setattr(
        discovery, "fisher_z_from_correlation",
        counted("fisher_z", discovery.fisher_z_from_correlation),
    )
    return calls


def recording(test):
    """``test`` plus the list of ((x, y, given), p-value) answers it gave."""
    answers = []

    def recorded(x, y, given):
        p = test(x, y, given)
        answers.append(((x, y, given), p))
        return p

    return recorded, answers


def test_mixed_ci_test_calls_each_kernel_through_the_module(monkeypatch):
    # the benchmark's tracer counts CI queries by wrapping the closure and
    # kernel runs by wrapping these two module attributes; the closure
    # answers a repeated query from its memo, so kernels run once per
    # distinct query while every query still counts in tests_run
    calls = count_kernel_calls(monkeypatch)
    queries = []
    factory = discovery.mixed_ci_test

    def recording_factory(view):
        test = factory(view)

        def recorded(x, y, given):
            queries.append((x, y, given))
            return test(x, y, given)

        return recorded

    monkeypatch.setattr(discovery, "mixed_ci_test", recording_factory)
    res = run_fci(seed1_cohort_view(), LearnConfig(do_possible_dsep=True))
    assert calls["g2"] > 0 and calls["fisher_z"] > 0
    assert len(set(queries)) < len(queries)  # pd-sep repeats skeleton queries
    assert calls["g2"] + calls["fisher_z"] == len(set(queries))
    assert res.tests_run == len(queries)


class TestMemoizedCiTest:
    @pytest.mark.parametrize("source", ["seed1_cohort", "wide_history"])
    def test_same_answers_as_the_reference(self, source):
        view = seed1_cohort_view() if source == "seed1_cohort" else wide_category_view("history")
        config = LearnConfig(do_possible_dsep=True)
        memo_test, memo_answers = recording(discovery.mixed_ci_test(view))
        ref_test, ref_answers = recording(reference_mixed_ci_test(view))
        got = run_fci(view, config, ci_test=memo_test)
        want = run_fci(view, config, ci_test=ref_test)
        assert got.graph.to_json_dict() == want.graph.to_json_dict()
        assert got.sepsets.to_json_dict() == want.sepsets.to_json_dict()
        assert got.tests_run == want.tests_run == len(memo_answers)
        assert len({q for q, _ in memo_answers}) < len(memo_answers)
        # same queries in the same order, each p-value equal with ==
        assert memo_answers == ref_answers

    def test_raising_query_raises_again_and_reruns_the_kernel(self, monkeypatch):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(200), rng.standard_normal(200)
        ds = Dataset(
            [ColumnSchema(n, "continuous", "c") for n in ("a", "b", "a_copy")],
            {"a": a, "b": b, "a_copy": a.copy()},
        )
        calls = count_kernel_calls(monkeypatch)
        test = discovery.mixed_ci_test(ds.view())
        for attempt in (1, 2):
            with pytest.raises(SingularCorrelationError):
                test("a", "b", ("a_copy",))
            assert calls["fisher_z"] == attempt
        assert test("a", "b", ()) == reference_mixed_ci_test(ds.view())("a", "b", ())

    def test_closures_on_two_views_share_no_answers(self, monkeypatch):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(400)
        ds = Dataset(
            [ColumnSchema(n, "continuous", "c") for n in ("a", "b")],
            {"a": a, "b": a + rng.standard_normal(400)},
        )
        halves = [
            DatasetView(ds, ("a", "b"), rows)
            for rows in (np.arange(0, 400, 2), np.arange(1, 400, 2))
        ]
        calls = count_kernel_calls(monkeypatch)
        tests = [discovery.mixed_ci_test(half) for half in halves]
        got = [t("a", "b", ()) for t in tests]
        assert calls["fisher_z"] == 2
        assert got == [reference_mixed_ci_test(half)("a", "b", ()) for half in halves]
        assert got[0] != got[1]


def count_batch_calls(monkeypatch):
    """Count calls to both batch kernels at the module attributes the default test uses."""
    calls = {"g2": 0, "fisher_z": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(discovery, "g_squared_batch", counted("g2", discovery.g_squared_batch))
    monkeypatch.setattr(discovery, "fisher_z_batch", counted("fisher_z", discovery.fisher_z_batch))
    return calls


class TestBatchedCiTest:
    @pytest.mark.parametrize("source", ["seed1_cohort", "wide_history", "wide_exam"])
    def test_same_answers_as_the_reference(self, monkeypatch, source):
        view = {
            "seed1_cohort": seed1_cohort_view,
            "wide_history": lambda: wide_category_view("history"),
            "wide_exam": lambda: wide_category_view("exam"),
        }[source]()
        config = LearnConfig(do_possible_dsep=True)
        calls = count_batch_calls(monkeypatch)
        test = discovery.mixed_ci_test(view)
        got = run_fci(view, config, ci_test=test)
        want = run_fci(view, config, ci_test=reference_mixed_ci_test(view))
        # the wide table's history and exam categories are all categorical
        assert calls["g2"] > 0
        assert (calls["fisher_z"] > 0) == (source == "seed1_cohort")
        for res in (got, run_fci(view, config)):
            assert res.graph.to_json_dict() == want.graph.to_json_dict()
            assert res.sepsets.to_json_dict() == want.sepsets.to_json_dict()
            assert res.tests_run == want.tests_run
        reference = reference_mixed_ci_test(view)
        assert all(p == reference(*query) for query, p in test.answered.items())

    def test_chunk_spanning_several_strata_counts(self):
        view = wide_category_view("exam")
        levels = {c: k for c, (_, k) in view.categorical_bitsets[1].items()}
        x, y, *rest = [c for c in view.columns if c in levels]
        chunk = list(itertools.combinations(rest[:8], 3))[:32]
        assert len({math.prod(levels[c] for c in s) for s in chunk}) > 1
        assert {levels[c] for c in (x, y, *rest[:8])} == {2, 3}
        test = discovery.mixed_ci_test(view)
        test.prefetch([(x, y, s) for s in chunk])
        assert set(test.answered) == {(x, y, s) for s in chunk}
        reference = reference_mixed_ci_test(view)
        assert all(p == reference(*query) for query, p in test.answered.items())

    def test_chunk_with_one_pending_g2_set(self, monkeypatch):
        # the first set is answered by a single query, so the chunk leaves
        # one G^2 set for the batch kernel
        view = wide_category_view("exam")
        x, y, z, w = [c for c in view.columns if c in view.categorical_bitsets[1]][:4]
        test = discovery.mixed_ci_test(view)
        test(x, y, (z,))
        calls = count_batch_calls(monkeypatch)
        test.prefetch([(x, y, (z,)), (x, y, (w,))])
        assert calls == {"g2": 1, "fisher_z": 0}
        assert set(test.answered) == {(x, y, (z,)), (x, y, (w,))}
        assert test.answered[(x, y, (w,))] == reference_mixed_ci_test(view)(x, y, (w,))

    def test_chunk_of_both_kinds(self, monkeypatch):
        # a categorical pair given single columns of either kind: the
        # chunk splits into a G^2 batch and a Fisher-z batch
        view = seed1_cohort_view()
        binary = [c for c in view.columns if view.schema_for(c).kind == "binary"]
        x, y = binary[:2]
        chunk = [(c,) for c in view.columns if c not in (x, y)]
        calls = count_batch_calls(monkeypatch)
        test = discovery.mixed_ci_test(view)
        test.prefetch([(x, y, s) for s in chunk])
        assert calls == {"g2": 1, "fisher_z": 1}
        assert set(test.answered) == {(x, y, s) for s in chunk}
        reference = reference_mixed_ci_test(view)
        assert all(p == reference(*query) for query, p in test.answered.items())

    def test_singular_set_after_the_separating_set(self):
        # X and Y are independent given {P, Q} only; A and its copy B are
        # kept next to X by the prior, so the level-2 chunk of (X, Y) holds
        # the singular set (A, B) after the separating set (P, Q)
        rng = np.random.default_rng(31)
        n = 2000
        p, q, a = rng.standard_normal((3, n))
        columns = {
            "X": p + q + rng.standard_normal(n),
            "Y": p + q + rng.standard_normal(n),
            "P": p,
            "Q": q,
            "A": a,
            "B": a.copy(),
        }
        ds = Dataset([ColumnSchema(c, "continuous", "c") for c in columns], columns)
        prior = PriorKnowledge.from_pairs(
            forbidden=[("A", "B")],
            required=[("X", "P"), ("X", "Q"), ("X", "A"), ("X", "B")],
        )
        config = LearnConfig(alpha=0.01, do_possible_dsep=False)
        test = discovery.mixed_ci_test(ds.view())
        rounds = []

        batch = test.prefetch

        def prefetch(queries):
            rounds.append(list(queries))
            batch(queries)

        test.prefetch = prefetch
        got = run_fci(ds.view(), config, prior, ci_test=test)
        want = run_fci(ds.view(), config, prior, ci_test=reference_mixed_ci_test(ds.view()))
        assert got.graph.to_json_dict() == want.graph.to_json_dict()
        assert got.tests_run == want.tests_run
        assert got.sepsets.get("X", "Y") == ("P", "Q")
        chunk = next(
            [s for x, y, s in queries if (x, y) == ("X", "Y")]
            for queries in rounds if ("X", "Y", ("A", "B")) in queries
        )
        assert chunk.index(("P", "Q")) < chunk.index(("A", "B"))
        assert ("X", "Y", ("A", "B")) not in test.answered
        with pytest.raises(SingularCorrelationError):
            test("X", "Y", ("A", "B"))

    def test_round_with_one_singular_set(self, monkeypatch):
        # a round across pairs and set sizes, of both kinds, holds one
        # singular Fisher-z set; the batch answers every other query, so
        # asking them all runs a one-query kernel only for the singular one
        rng = np.random.default_rng(32)
        n = 400
        a = rng.standard_normal(n)
        numeric = {c: rng.standard_normal(n) for c in ("P", "Q", "R")}
        binary = {c: rng.integers(0, 2, n).astype(float) for c in ("U", "V", "W")}
        columns = {**numeric, "A": a, "B": a.copy(), **binary}
        schema = [ColumnSchema(c, "continuous", "c") for c in (*numeric, "A", "B")] + [
            ColumnSchema(c, "binary", "c", levels=("0", "1")) for c in binary
        ]
        view = Dataset(schema, columns).view()
        singular = ("P", "Q", ("A", "B"))
        queries = [
            ("P", "Q", ()), ("P", "Q", ("R",)), ("Q", "R", ("P", "U")), singular,
            ("R", "P", ("A",)), ("P", "U", ("V", "W")), ("U", "V", ()), ("U", "V", ("W",)),
            ("V", "W", ("U",)), ("W", "U", ()),
        ]
        test = discovery.mixed_ci_test(view)
        batches = count_batch_calls(monkeypatch)
        test.prefetch(queries)
        assert batches == {"g2": 1, "fisher_z": 1}
        assert set(test.answered) == set(queries) - {singular}
        kernels = count_kernel_calls(monkeypatch)
        reference = reference_mixed_ci_test(view)
        for query in queries:
            if query != singular:
                assert test(*query) == reference(*query)
        assert kernels == {"g2": 0, "fisher_z": 0}
        with pytest.raises(SingularCorrelationError, match="'P', 'Q' \\| \\('A', 'B'\\)"):
            test(*singular)
        assert kernels == {"g2": 0, "fisher_z": 1}

    def test_memo_is_freed_when_run_fci_returns(self, monkeypatch):
        # the default test must hold no reference cycle: with the cycle
        # collector off, refcounting alone has to free it and its memo
        made = []
        factory = discovery.mixed_ci_test

        def tracked(view):
            test = factory(view)
            made.append(weakref.ref(test))
            return test

        monkeypatch.setattr(discovery, "mixed_ci_test", tracked)
        view = seed1_cohort_view()
        enabled = gc.isenabled()
        gc.disable()
        try:
            run_fci(view, LearnConfig(do_possible_dsep=True))
            assert len(made) == 1 and made[0]() is None
        finally:
            if enabled:
                gc.enable()


def search_outcome(learn, prune, view, config, prior, ci):
    """Each search stage's graph, sepsets and tests_run, or the (type, message) it raised."""
    try:
        skel = learn(view, config, prior, ci)
        stages = [skel]
        if config.do_possible_dsep:
            stages.append(prune(orient_v_structures(skel), skel.sepsets, config, ci, prior))
    except Exception as error:
        return type(error), str(error)
    return [(r.graph.to_json_dict(), r.sepsets.to_json_dict(), r.tests_run) for r in stages]


def same_as_sequential(view, config, prior=None, ci=None, reference_ci=None):
    """Both stages in rounds with the batched test (or ``ci``), and one search at a time."""
    got = search_outcome(
        learn_skeleton, possible_dsep_prune, view, config, prior,
        ci or discovery.mixed_ci_test(view),
    )
    want = search_outcome(
        reference_learn_skeleton, reference_possible_dsep_prune, view, config, prior,
        reference_ci or reference_mixed_ci_test(view),
    )
    assert got == want
    return got


class TestSearchRounds:
    """The searches in rounds against the frozen sequential searches."""

    def test_seed1_cohort_views(self):
        ds, _ = make_clinical_synth(1)
        outcome = ds.outcome_column()
        views = [seed1_cohort_view()] + [
            complete_cases(ds, [*(c.name for c in ds.schema if c.category == category), outcome])
            for category in ds.categories()
        ]
        for view in views:
            for pdsep in (True, False):
                assert isinstance(same_as_sequential(view, LearnConfig(do_possible_dsep=pdsep)), list)

    @pytest.mark.parametrize("category", ["labs_a", "labs_b", "history", "exam"])
    def test_wide_table_categories(self, category):
        stages = same_as_sequential(
            wide_category_view(category), LearnConfig(alpha=0.01, do_possible_dsep=True)
        )
        assert stages[1][2] > 0

    def test_every_small_dag_under_the_oracle(self):
        # every DAG of 2-4 nodes, all observed and with its first node hidden
        runs = 0
        for n in (2, 3, 4):
            names = [f"v{i}" for i in range(n)]
            for edges in enumerate_dags(names):
                dag = MixedGraph(names)
                for u, v in edges:
                    dag.add_directed_edge(u, v)
                for hidden in (0, 1) if n > 2 else (0,):
                    view = dummy_view(names[hidden:])
                    for pdsep in (True, False):
                        same_as_sequential(
                            view, LearnConfig(do_possible_dsep=pdsep),
                            ci=oracle_ci_test(dag), reference_ci=oracle_ci_test(dag),
                        )
                        runs += 1
        assert runs == 2 * (3 + 25 * 2 + 543 * 2)

    def test_first_error_in_loop_order(self):
        # B copies A, and the prior keeps A and B apart, so at level 1 a
        # search from Y1 or Y2 raises when it conditions on B. Y1 is searched
        # first, but the prior keeps 40 columns next to Y1, so its search
        # reaches B only in its second round, after Y2's search has raised
        rng = np.random.default_rng(41)
        n = 300
        a = rng.standard_normal(n)
        noise = {f"C{i:02d}": rng.standard_normal(n) for i in range(40)}
        columns = {
            "Y1": a + sum(noise.values()) / 10 + rng.standard_normal(n),
            "Y2": a + rng.standard_normal(n),
            **noise,
            "A": a,
            "B": a.copy(),
        }
        ds = Dataset([ColumnSchema(c, "continuous", "c") for c in columns], columns)
        prior = PriorKnowledge.from_pairs(
            forbidden=[("A", "B")], required=[("Y1", c) for c in noise]
        )
        test = discovery.mixed_ci_test(ds.view())
        rounds = []
        batch = test.prefetch

        def prefetch(queries):
            rounds.append(list(queries))
            batch(queries)

        test.prefetch = prefetch
        # the sequential searches ask a fresh default test one query at a
        # time, so that its error names the columns as the batched test's does
        got = same_as_sequential(
            ds.view(), LearnConfig(do_possible_dsep=False), prior, test,
            reference_ci=discovery.mixed_ci_test(ds.view()),
        )
        assert got == (
            SingularCorrelationError,
            "correlation submatrix for ('Y1', 'A' | ('B',)) is singular",
        )
        # Y2's singular query was handed to the test a round before Y1's
        where = {
            query: next(i for i, r in enumerate(rounds) if query in r)
            for query in (("Y1", "A", ("B",)), ("Y2", "A", ("B",)))
        }
        assert where[("Y2", "A", ("B",))] < where[("Y1", "A", ("B",))]


class TestUnknownColumn:
    @pytest.fixture()
    def view(self):
        rng = np.random.default_rng(12)
        schema = [
            ColumnSchema("a", "binary", "c", levels=("0", "1")),
            ColumnSchema("b", "binary", "c", levels=("0", "1")),
            ColumnSchema("lab", "continuous", "c"),
            ColumnSchema("out", "binary", "c", levels=("0", "1")),
        ]
        ds = Dataset(schema, {
            "a": rng.integers(0, 2, 100).astype(float),
            "b": rng.integers(0, 2, 100).astype(float),
            "lab": rng.standard_normal(100),
            "out": rng.integers(0, 2, 100).astype(float),
        })
        return ds.view(["a", "b", "lab"])

    @pytest.mark.parametrize(
        "x, y, given",
        [("a", "out", ()), ("out", "a", ()), ("a", "b", ("out",)), ("lab", "out", ()),
         ("lab", "a", ("out",)), ("a", "nowhere", ("b",))],
    )
    def test_query_outside_the_view(self, view, x, y, given):
        test = discovery.mixed_ci_test(view)
        with pytest.raises(UnknownColumnError, match="not selected in view"):
            test(x, y, given)
        assert test.answered == {}

    def test_batched_query_outside_the_view(self, view):
        test = discovery.mixed_ci_test(view)
        test.prefetch([("a", "b", ("lab",)), ("a", "b", ("out",))])
        # the query inside the view is answered by the batch, the other is
        # left to the one-query path
        want = reference_mixed_ci_test(view)("a", "b", ("lab",))
        assert test.answered == {("a", "b", ("lab",)): want}
        assert test("a", "b", ("lab",)) == want
        with pytest.raises(UnknownColumnError, match="'out' not selected in view"):
            test("a", "b", ("out",))

    def test_search_with_a_test_of_a_narrower_view(self, view):
        wide = view.source.view(["a", "b", "lab", "out"])
        with pytest.raises(UnknownColumnError, match="'out' not selected in view"):
            run_fci(wide, LearnConfig(), ci_test=discovery.mixed_ci_test(view))
