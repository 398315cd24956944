import itertools

import numpy as np
import pytest

from causaltab.errors import UnknownNodeError
from causaltab.graph import (
    ARROW,
    CIRCLE,
    TAIL,
    MixedGraph,
    PriorKnowledge,
    SepSetStore,
    d_separation_tester,
    neighbors_within,
    to_dot,
)

from oracles import bfs_within, d_separated, enumerate_dags, parse_dot


def path_graph():
    g = MixedGraph(["A", "B", "C"])
    g.add_edge("A", "B")
    g.add_edge("B", "C")
    return g


class TestMixedGraph:
    def test_self_loop_rejected(self):
        g = MixedGraph(["A"])
        with pytest.raises(ValueError):
            g.add_edge("A", "A")

    def test_duplicate_edge_rejected(self):
        g = path_graph()
        with pytest.raises(ValueError):
            g.add_edge("B", "A")

    def test_marks_are_per_endpoint(self):
        g = MixedGraph(["A", "B"])
        g.add_edge("A", "B", mark_u=TAIL, mark_v=ARROW)
        assert g.mark_at("A", "B", at="A") == TAIL
        assert g.mark_at("B", "A", at="B") == ARROW
        assert g.directed_edges() == [("A", "B")]
        assert g.children("A") == ("B",)

    def test_set_mark_is_endpoint_stable_regardless_of_order(self):
        g = MixedGraph(["A", "B"])
        g.add_edge("A", "B")
        g.set_mark("B", "A", at="A", mark=ARROW)
        assert g.mark_at("A", "B", at="A") == ARROW
        assert g.mark_at("A", "B", at="B") == CIRCLE

    def test_unknown_node(self):
        g = path_graph()
        with pytest.raises(UnknownNodeError):
            g.neighbors("Z")

    def test_skeleton_resets_marks_and_strengths(self):
        g = MixedGraph(["A", "B"])
        g.add_edge("A", "B", mark_u=TAIL, mark_v=ARROW, strength=0.7)
        s = g.skeleton()
        e = s.edge("A", "B")
        assert (e.mark_u, e.mark_v, e.strength) == (CIRCLE, CIRCLE, None)

    def test_json_round_trip(self):
        g = MixedGraph(["A", "B", "C"])
        g.add_edge("A", "B", mark_u=TAIL, mark_v=ARROW, strength=-0.46)
        g.add_edge("B", "C")
        again = MixedGraph.from_json_dict(g.to_json_dict())
        assert again.to_json_dict() == g.to_json_dict()


class TestNeighborsWithin:
    def test_path_one_hop(self):
        assert neighbors_within(path_graph(), "A", 1) == {"B"}

    def test_path_two_hops(self):
        assert neighbors_within(path_graph(), "A", 2) == {"B", "C"}

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            neighbors_within(path_graph(), "Z", 1)

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            names = [f"v{i}" for i in range(n)]
            g = MixedGraph(names)
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        g.add_edge(names[i], names[j])
                        edges.append((names[i], names[j]))
            k = int(rng.integers(1, 4))
            v = names[int(rng.integers(0, n))]
            assert neighbors_within(g, v, k) == bfs_within(edges, v, k)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(19)
        names = [f"v{i}" for i in range(8)]
        g = MixedGraph(names)
        for i in range(8):
            for j in range(i + 1, 8):
                if rng.random() < 0.25:
                    g.add_edge(names[i], names[j])
        for v in names:
            for k in range(1, 6):
                assert neighbors_within(g, v, k) <= neighbors_within(g, v, k + 1)


class TestDot:
    def test_positive_edge_is_red_and_thicker(self):
        g = MixedGraph(["A", "B"])
        g.add_edge("A", "B", strength=0.5)
        text = to_dot(g)
        line = next(l for l in text.splitlines() if "--" in l)
        assert "color=red" in line
        assert float(line.split("penwidth=")[1].split(",")[0].rstrip("]; ")) > 1.0

    def test_empty_graph_valid(self):
        g = MixedGraph(["A", "B"])
        text = to_dot(g)
        assert text.startswith("graph")
        assert '"A";' in text

    def test_negative_age_outcome_edge_blue_and_thickest(self):
        g = MixedGraph(["AGE", "BUN", "OUTCOME"])
        g.add_edge("AGE", "OUTCOME", strength=-0.46)
        g.add_edge("BUN", "OUTCOME", strength=0.21)
        text = to_dot(g)
        lines = [l for l in text.splitlines() if "--" in l]
        age_line = next(l for l in lines if "AGE" in l)
        widths = [float(l.split("penwidth=")[1].split(",")[0]) for l in lines]
        assert "color=blue" in age_line
        assert float(age_line.split("penwidth=")[1].split(",")[0]) == max(widths)

    def test_structure_round_trip(self):
        g = MixedGraph(["A", "B", "C", "D"])
        g.add_edge("A", "B", mark_u=TAIL, mark_v=ARROW, strength=0.3)
        g.add_edge("B", "C", mark_u=ARROW, mark_v=ARROW)
        g.add_edge("C", "D")
        again = parse_dot(to_dot(g))
        assert set(again.nodes) == set(g.nodes)
        assert {frozenset((e.u, e.v)) for e in again.edges()} == {
            frozenset((e.u, e.v)) for e in g.edges()
        }

    def test_edges_drawn_undirected(self):
        g = MixedGraph(["A", "B"])
        g.add_edge("A", "B", mark_u=TAIL, mark_v=ARROW, strength=0.3)
        line = next(l for l in to_dot(g).splitlines() if "--" in l)
        assert "dir=none" in line
        assert "arrowhead" not in line and "arrowtail" not in line


class TestSepSetStore:
    def test_unordered_lookup(self):
        s = SepSetStore()
        s.record("X", "Y", ("Z",))
        assert s.get("Y", "X") == ("Z",)
        assert s.get("X", "Z") is None

    def test_items_sorted(self):
        s = SepSetStore()
        s.record("B", "C", ())
        s.record("A", "B", ("C",))
        pairs = [sorted(p) for p, _ in s.items()]
        assert pairs == [["A", "B"], ["B", "C"]]


class TestPriorKnowledge:
    def test_disjointness_enforced(self):
        with pytest.raises(ValueError):
            PriorKnowledge.from_pairs(forbidden=[("A", "B")], required=[("B", "A")])

    def test_lookups(self):
        pk = PriorKnowledge.from_pairs(forbidden=[("A", "B")], required=[("C", "D")])
        assert frozenset(("B", "A")) in pk.forbidden
        assert pk.requires("D", "C")
        assert frozenset(("C", "D")) not in pk.forbidden

    def test_unknown_names_hard_error(self):
        pk = PriorKnowledge.from_pairs(forbidden=[("A", "NOPE")])
        with pytest.raises(UnknownNodeError):
            pk.validate_names(["A", "B"])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "prior.json"
        path.write_text('{"forbidden": [["A", "B"]], "required": [["C", "D"]]}')
        pk = PriorKnowledge.load(path)
        assert frozenset(("A", "B")) in pk.forbidden
        assert pk.requires("C", "D")


class TestDSeparationTester:
    def test_matches_uncached_queries_on_all_small_dags(self):
        # one tester per DAG answers every query, so queries that share
        # (x, S) after the first are served from its reachability cache
        for n in (2, 3, 4):
            names = [f"v{i}" for i in range(n)]
            for edges in enumerate_dags(names):
                g = MixedGraph(names)
                for s, t in edges:
                    g.add_directed_edge(s, t)
                tester = d_separation_tester(g)
                for x, y in itertools.permutations(names, 2):
                    rest = [v for v in names if v not in (x, y)]
                    for r in range(len(rest) + 1):
                        for cond in itertools.combinations(rest, r):
                            want = d_separated(g, x, y, cond)
                            assert tester(x, y, cond) == want
                            assert tester(x, y, cond[::-1]) == want
