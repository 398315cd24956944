"""Mixed graphs over named variables: endpoint marks, strengths, hops,
d-separation on fully directed graphs, DOT.

Edges carry one mark per endpoint (circle / arrow / tail) so that both
partially oriented output and fully directed ground-truth graphs share one
representation. A directed edge u -> v is tail at u, arrow at v.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import CyclicGraphError, UnknownNodeError

CIRCLE = "circle"
ARROW = "arrow"
TAIL = "tail"
MARKS = (CIRCLE, ARROW, TAIL)


@dataclass(frozen=True)
class Edge:
    """Undirected pair (u, v) with a mark at each end and an optional signed strength."""

    u: str
    v: str
    mark_u: str = CIRCLE
    mark_v: str = CIRCLE
    strength: float | None = None

    def __post_init__(self):
        if self.mark_u not in MARKS or self.mark_v not in MARKS:
            raise ValueError(f"invalid marks ({self.mark_u}, {self.mark_v})")
        if self.u == self.v:
            raise ValueError(f"self-loop on {self.u!r}")

    def mark_at(self, node: str) -> str:
        if node == self.u:
            return self.mark_u
        if node == self.v:
            return self.mark_v
        raise UnknownNodeError(f"{node!r} is not an endpoint of {self.u!r}-{self.v!r}")

    def other(self, node: str) -> str:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise UnknownNodeError(f"{node!r} is not an endpoint of {self.u!r}-{self.v!r}")

    def is_directed_out_of(self, node: str) -> bool:
        """True when the edge is fully directed node -> other."""
        return self.mark_at(node) == TAIL and self.mark_at(self.other(node)) == ARROW


class MixedGraph:
    """Mutable mixed graph; node order fixes all iteration orders."""

    def __init__(self, nodes: Iterable[str] = ()):
        self._nodes: list[str] = []
        self._index: dict[str, int] = {}
        self._edges: dict[tuple[str, str], Edge] = {}
        self._adj: dict[str, set[str]] = {}
        for n in nodes:
            self.add_node(n)

    # -- nodes ---------------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def add_node(self, name: str) -> None:
        if name in self._index:
            return
        self._index[name] = len(self._nodes)
        self._nodes.append(name)
        self._adj[name] = set()

    def has_node(self, name: str) -> bool:
        return name in self._index

    def _require(self, name: str) -> None:
        if name not in self._index:
            raise UnknownNodeError(f"unknown node {name!r}")

    def _key(self, u: str, v: str) -> tuple[str, str]:
        return (u, v) if self._index[u] <= self._index[v] else (v, u)

    # -- edges ---------------------------------------------------------------

    def add_edge(
        self,
        u: str,
        v: str,
        mark_u: str = CIRCLE,
        mark_v: str = CIRCLE,
        strength: float | None = None,
    ) -> None:
        self._require(u)
        self._require(v)
        if u == v:
            raise ValueError(f"self-loop on {u!r}")
        key = self._key(u, v)
        if key in self._edges:
            raise ValueError(f"duplicate edge {u!r}-{v!r}")
        if key == (u, v):
            edge = Edge(u, v, mark_u, mark_v, strength)
        else:
            edge = Edge(v, u, mark_v, mark_u, strength)
        self._edges[key] = edge
        self._adj[u].add(v)
        self._adj[v].add(u)

    def add_directed_edge(self, src: str, dst: str) -> None:
        self.add_edge(src, dst, mark_u=TAIL, mark_v=ARROW)

    def remove_edge(self, u: str, v: str) -> None:
        self._require(u)
        self._require(v)
        key = self._key(u, v)
        if key not in self._edges:
            raise UnknownNodeError(f"no edge {u!r}-{v!r}")
        del self._edges[key]
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def has_edge(self, u: str, v: str) -> bool:
        self._require(u)
        self._require(v)
        return self._key(u, v) in self._edges

    def edge(self, u: str, v: str) -> Edge | None:
        self._require(u)
        self._require(v)
        return self._edges.get(self._key(u, v))

    def edges(self) -> list[Edge]:
        return [self._edges[k] for k in sorted(self._edges, key=lambda k: (self._index[k[0]], self._index[k[1]]))]

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, v: str) -> tuple[str, ...]:
        self._require(v)
        return tuple(sorted(self._adj[v], key=self._index.__getitem__))

    def mark_at(self, u: str, v: str, at: str) -> str:
        e = self.edge(u, v)
        if e is None:
            raise UnknownNodeError(f"no edge {u!r}-{v!r}")
        return e.mark_at(at)

    def set_mark(self, u: str, v: str, at: str, mark: str) -> None:
        e = self.edge(u, v)
        if e is None:
            raise UnknownNodeError(f"no edge {u!r}-{v!r}")
        if mark not in MARKS:
            raise ValueError(f"invalid mark {mark!r}")
        if at == e.u:
            self._edges[self._key(u, v)] = replace(e, mark_u=mark)
        elif at == e.v:
            self._edges[self._key(u, v)] = replace(e, mark_v=mark)
        else:
            raise UnknownNodeError(f"{at!r} is not an endpoint of {u!r}-{v!r}")

    def set_strength(self, u: str, v: str, strength: float | None) -> None:
        e = self.edge(u, v)
        if e is None:
            raise UnknownNodeError(f"no edge {u!r}-{v!r}")
        self._edges[self._key(u, v)] = replace(e, strength=strength)

    # -- derived views ---------------------------------------------------------

    def copy(self) -> "MixedGraph":
        g = MixedGraph(self._nodes)
        g._edges = dict(self._edges)
        for n in self._nodes:
            g._adj[n] = set(self._adj[n])
        return g

    def skeleton(self) -> "MixedGraph":
        """Copy with every mark reset to circle and strengths dropped."""
        g = MixedGraph(self._nodes)
        for e in self.edges():
            g.add_edge(e.u, e.v)
        return g

    def directed_edges(self) -> list[tuple[str, str]]:
        """Fully directed pairs (src, dst): tail at src, arrow at dst."""
        out = []
        for e in self.edges():
            if e.mark_u == TAIL and e.mark_v == ARROW:
                out.append((e.u, e.v))
            elif e.mark_v == TAIL and e.mark_u == ARROW:
                out.append((e.v, e.u))
        return out

    def children(self, v: str) -> tuple[str, ...]:
        return tuple(n for n in self.neighbors(v) if self.edge(v, n).is_directed_out_of(v))

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self._nodes),
            "edges": [
                {
                    "u": e.u,
                    "v": e.v,
                    "mark_u": e.mark_u,
                    "mark_v": e.mark_v,
                    "strength": e.strength,
                }
                for e in self.edges()
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "MixedGraph":
        nodes = payload.get("nodes") if isinstance(payload, dict) else None
        if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
            raise ValueError("a graph must be a JSON object whose 'nodes' is a list of names")
        edges = payload.get("edges", [])
        if not isinstance(edges, list) or not all(
            isinstance(e, dict) and isinstance(e.get("u"), str) and isinstance(e.get("v"), str)
            for e in edges
        ):
            raise ValueError("a graph's 'edges' must be a list of objects with string 'u' and 'v'")
        g = cls(nodes)
        for e in edges:
            g.add_edge(
                e["u"],
                e["v"],
                mark_u=e.get("mark_u", CIRCLE),
                mark_v=e.get("mark_v", CIRCLE),
                strength=e.get("strength"),
            )
        return g

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "MixedGraph":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def neighbors_within(g: MixedGraph, v: str, k: int) -> set[str]:
    """Nodes at undirected path distance <= k from v, excluding v itself."""
    if not g.has_node(v):
        raise UnknownNodeError(f"unknown node {v!r}")
    seen = {v}
    frontier = deque([(v, 0)])
    out: set[str] = set()
    while frontier:
        node, dist = frontier.popleft()
        if dist == k:
            continue
        for nb in g.neighbors(node):
            if nb not in seen:
                seen.add(nb)
                out.add(nb)
                frontier.append((nb, dist + 1))
    return out


class SepSetStore:
    """Mapping from unordered variable pairs to the set that separated them."""

    def __init__(self):
        self._store: dict[frozenset[str], tuple[str, ...]] = {}

    def record(self, u: str, v: str, sepset: Sequence[str]) -> None:
        self._store[frozenset((u, v))] = tuple(sepset)

    def get(self, u: str, v: str) -> tuple[str, ...] | None:
        return self._store.get(frozenset((u, v)))

    def items(self) -> Iterator[tuple[frozenset[str], tuple[str, ...]]]:
        return iter(sorted(self._store.items(), key=lambda kv: tuple(sorted(kv[0]))))

    def copy(self) -> "SepSetStore":
        s = SepSetStore()
        s._store = dict(self._store)
        return s

    def to_json_dict(self) -> list:
        return [
            {"pair": sorted(pair), "sepset": list(sep)} for pair, sep in self.items()
        ]


@dataclass(frozen=True)
class PriorKnowledge:
    """Adjacency constraints: forbidden pairs are never adjacent, required ones never removed."""

    forbidden: frozenset[frozenset[str]] = frozenset()
    required: frozenset[frozenset[str]] = frozenset()

    def __post_init__(self):
        overlap = self.forbidden & self.required
        if overlap:
            raise ValueError(f"pairs both forbidden and required: {sorted(map(sorted, overlap))}")
        for pair in list(self.forbidden) + list(self.required):
            if len(pair) != 2:
                raise ValueError(f"constraint pair must have 2 distinct names: {sorted(pair)}")

    @classmethod
    def from_pairs(
        cls,
        forbidden: Iterable[tuple[str, str]] = (),
        required: Iterable[tuple[str, str]] = (),
    ) -> "PriorKnowledge":
        return cls(
            forbidden=frozenset(frozenset(p) for p in forbidden),
            required=frozenset(frozenset(p) for p in required),
        )

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PriorKnowledge":
        if not isinstance(payload, dict):
            raise ValueError("prior knowledge must be a JSON object")
        unknown = sorted(set(payload) - {"forbidden", "required"})
        if unknown:
            raise ValueError(f"unknown prior knowledge keys: {', '.join(unknown)}")
        pairs = {}
        for key in ("forbidden", "required"):
            value = payload.get(key, [])
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(isinstance(n, str) for n in p)
                for p in value
            ):
                raise ValueError(f"prior knowledge {key!r} must be a list of [name, name] pairs")
            pairs[key] = [tuple(p) for p in value]
        return cls.from_pairs(**pairs)

    def to_json_dict(self) -> dict:
        return {
            "forbidden": sorted(sorted(p) for p in self.forbidden),
            "required": sorted(sorted(p) for p in self.required),
        }

    @classmethod
    def load(cls, path: str | Path) -> "PriorKnowledge":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def validate_names(self, known: Sequence[str]) -> None:
        known_set = set(known)
        for pair in list(self.forbidden) + list(self.required):
            unknown = sorted(pair - known_set)
            if unknown:
                raise UnknownNodeError(f"prior knowledge names unknown columns: {unknown}")

    def requires(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.required


# -- d-separation ------------------------------------------------------------

def _directed_maps(dag: MixedGraph) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
    """Parent and child maps of a fully directed graph; rejects partial marks."""
    parents: dict[str, list[str]] = {n: [] for n in dag.nodes}
    children: dict[str, list[str]] = {n: [] for n in dag.nodes}
    for e in dag.edges():
        if e.mark_u == TAIL and e.mark_v == ARROW:
            src, dst = e.u, e.v
        elif e.mark_v == TAIL and e.mark_u == ARROW:
            src, dst = e.v, e.u
        else:
            raise CyclicGraphError(
                f"edge {e.u!r}-{e.v!r} is not fully directed (marks {e.mark_u}/{e.mark_v})"
            )
        parents[dst].append(src)
        children[src].append(dst)
    return (
        {n: tuple(v) for n, v in parents.items()},
        {n: tuple(v) for n, v in children.items()},
    )


def topological_order(dag: MixedGraph) -> list[str]:
    """Topological order of a fully directed acyclic graph."""
    parents, children = _directed_maps(dag)
    indeg = {n: len(parents[n]) for n in dag.nodes}
    queue = deque(n for n in dag.nodes if indeg[n] == 0)
    order = []
    while queue:
        n = queue.popleft()
        order.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if len(order) != len(dag.nodes):
        raise CyclicGraphError("directed graph contains a cycle")
    return order


def _reachable(
    x: str,
    s: frozenset[str],
    parents: Mapping[str, tuple[str, ...]],
    children: Mapping[str, tuple[str, ...]],
) -> set[str]:
    """Nodes d-connected to x given s (reachability over active paths)."""
    # ancestors of s, including s
    anc = set(s)
    stack = list(s)
    while stack:
        for p in parents[stack.pop()]:
            if p not in anc:
                anc.add(p)
                stack.append(p)

    UP, DOWN = 0, 1
    visited = {(x, UP)}
    queue = deque([(x, UP)])
    reach: set[str] = set()
    while queue:
        node, direction = queue.popleft()
        if node not in s:
            reach.add(node)
        if direction == UP and node not in s:
            for p in parents[node]:
                if (p, UP) not in visited:
                    visited.add((p, UP))
                    queue.append((p, UP))
            for c in children[node]:
                if (c, DOWN) not in visited:
                    visited.add((c, DOWN))
                    queue.append((c, DOWN))
        elif direction == DOWN:
            if node not in s:
                for c in children[node]:
                    if (c, DOWN) not in visited:
                        visited.add((c, DOWN))
                        queue.append((c, DOWN))
            if node in anc:
                for p in parents[node]:
                    if (p, UP) not in visited:
                        visited.add((p, UP))
                        queue.append((p, UP))
    reach.discard(x)
    return reach


def d_separation_tester(dag: MixedGraph) -> Callable[[str, str, Iterable[str]], bool]:
    """Closure answering d-separation queries with the DAG maps precomputed.

    The set of nodes d-connected to x given s is kept under (x, s) for the
    life of the closure, so queries that differ only in y share one
    reachability search.
    """
    parents, children = _directed_maps(dag)
    topological_order(dag)
    reachable: dict[tuple[str, frozenset[str]], set[str]] = {}

    def tester(x: str, y: str, s: Iterable[str] = ()) -> bool:
        key = (x, frozenset(s))
        reach = reachable.get(key)
        if reach is None:
            reach = reachable[key] = _reachable(x, key[1], parents, children)
        return y not in reach

    return tester


# -- DOT rendering -----------------------------------------------------------

_BASE_PENWIDTH = 1.0
_MAX_PENWIDTH = 4.5
_NEUTRAL_COLOR = "gray40"


def to_dot(g: MixedGraph) -> str:
    """GraphViz text: pen width scales with |strength| within the graph, sign sets color.

    Edges are drawn undirected: learned orientations are not reliable
    enough to publish, so only sign and strength are shown.
    """
    strengths = [abs(e.strength) for e in g.edges() if e.strength is not None]
    max_abs = max(strengths) if strengths else 0.0
    lines = ["graph causal {", "  node [shape=ellipse];"]
    for n in g.nodes:
        lines.append(f'  "{n}";')
    for e in g.edges():
        attrs = ["dir=none"]
        if e.strength is None:
            attrs.append(f"color={_NEUTRAL_COLOR}")
            attrs.append(f"penwidth={_BASE_PENWIDTH:.3f}")
        else:
            color = "red" if e.strength > 0 else ("blue" if e.strength < 0 else _NEUTRAL_COLOR)
            frac = abs(e.strength) / max_abs if max_abs > 0 else 0.0
            width = _BASE_PENWIDTH + frac * (_MAX_PENWIDTH - _BASE_PENWIDTH)
            attrs.append(f"color={color}")
            attrs.append(f"penwidth={width:.3f}")
            attrs.append(f'label="{e.strength:+.3f}"')
        lines.append(f'  "{e.u}" -- "{e.v}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
