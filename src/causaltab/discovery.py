"""Constraint-based structure learning.

PC-stable adjacency search with sepset recording and prior-knowledge
constraints, v-structure orientation, possible-d-sep pruning for latent
confounders, and the standard orientation propagation rules. The
conditional-independence test is pluggable: the default dispatches on
column kinds, and an exact d-separation oracle over a declared graph can
be substituted for validation runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable, Iterable

import numpy as np

from .data import DatasetView, standardize
from .errors import (
    CausalTabError,
    IncompleteViewError,
    UnknownColumnError,
    UnknownNodeError,
)
from .graph import (
    ARROW,
    CIRCLE,
    TAIL,
    MixedGraph,
    PriorKnowledge,
    SepSetStore,
    d_separation_tester,
)
from .stats import (
    fisher_z_batch,
    fisher_z_from_correlation,
    g_squared_batch,
    g_squared_test,
)

__all__ = [
    "LearnConfig",
    "SkeletonResult",
    "FciResult",
    "mixed_ci_test",
    "oracle_ci_test",
    "learn_skeleton",
    "orient_v_structures",
    "possible_dsep_prune",
    "apply_orientation_rules",
    "run_fci",
]

#: A conditional-independence test: (x, y, conditioning set) -> p-value.
CITest = Callable[[str, str, tuple[str, ...]], float]

#: The most conditioning sets of one pair and level that the searches hand
#: to a CI test's batch path at once. A larger chunk pays numpy's per-call
#: cost over more sets, but computes more sets that are never asked, once
#: an earlier set has removed the edge.
_CHUNK = 32


@dataclass(frozen=True)
class LearnConfig:
    alpha: float = 0.05
    max_cond_size: int | None = None
    do_possible_dsep: bool = True
    do_orientation: bool = True

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.max_cond_size is not None and self.max_cond_size < 0:
            raise ValueError(f"max_cond_size must be >= 0, got {self.max_cond_size}")


@dataclass(frozen=True)
class SkeletonResult:
    graph: MixedGraph
    sepsets: SepSetStore
    tests_run: int
    knowledge_removed: frozenset[frozenset[str]] = frozenset()


@dataclass(frozen=True)
class FciResult:
    graph: MixedGraph
    skeleton: SkeletonResult
    sepsets: SepSetStore
    tests_run: int


def mixed_ci_test(view: DatasetView) -> CITest:
    """Kind-dispatching CI test over a complete view.

    A query whose scope (x, y and the conditioning set) is all categorical
    gets the likelihood-ratio G^2 test; any other gets the Fisher-z
    partial-correlation test on numeric-coded data, from a correlation
    matrix built once per view. Each kernel is looked up as an attribute
    of this module at each call. A query naming a column outside the view
    raises UnknownColumnError.

    The returned test is memoized: it keeps each p-value under its query
    (x, y, given) for as long as the test lives (one ``run_fci`` on one
    view), so a repeated query, as the possible-d-sep stage asks many,
    calls no kernel. x and y keep the order asked: swapping them can
    change the p-value in its last bits. A query that raises stores
    nothing and raises again when repeated.

    Its batch path, ``prefetch(x, y, subsets)``, answers a chunk of one
    pair's sets of one level into the memo with one batched kernel call
    per kind, bit-identical to the one-query kernels. The searches then
    ask each set as before, so decisions and ``tests_run`` do not change,
    and a set whose kernel would raise raises only when asked.
    """
    return _MixedCITest(view)


class _MixedCITest:
    """The memoized test ``mixed_ci_test`` returns.

    A class rather than a closure with a batch attribute: a function that
    refers to itself is a reference cycle, which would keep the memo alive
    after ``run_fci`` returns until the next full garbage collection.
    """

    def __init__(self, view: DatasetView):
        self.view = view
        self.categorical = {c: view.schema_for(c).is_categorical for c in view.columns}
        self.answered: dict[tuple[str, str, tuple[str, ...]], float] = {}
        self._corr: tuple[np.ndarray, dict[str, int]] | None = None

    def _correlation(self) -> tuple[np.ndarray, dict[str, int]]:
        if self._corr is None:
            std = standardize(self.view)
            self._corr = (
                np.corrcoef(std.matrix, rowvar=False),
                {c: i for i, c in enumerate(std.columns)},
            )
        return self._corr

    def __call__(self, x: str, y: str, given: tuple[str, ...]) -> float:
        key = (x, y, given)
        p = self.answered.get(key)
        if p is None:
            p = self.answered[key] = self._p_value(x, y, given)
        return p

    def _p_value(self, x: str, y: str, given: tuple[str, ...]) -> float:
        if self._uses_g2(x, y, given):
            return g_squared_test(x, y, given, self.view).p_value
        corr, index = self._correlation()
        res = fisher_z_from_correlation(
            corr, self.view.n_rows, index[x], index[y], [index[s] for s in given]
        )
        return res.p_value

    def _uses_g2(self, x: str, y: str, given: tuple[str, ...]) -> bool:
        """The kind rule: G^2 for an all-categorical scope, Fisher-z otherwise.

        A column outside the view raises UnknownColumnError.
        """
        names = (x, y, *given)
        kinds = [self.categorical.get(name) for name in names]
        if None in kinds:
            name = names[kinds.index(None)]
            raise UnknownColumnError(f"column {name!r} not selected in view")
        return all(kinds)

    def prefetch(self, x: str, y: str, subsets: list[tuple[str, ...]]) -> None:
        """Answer (x, y, S) for every S in ``subsets`` into the memo, in batches.

        The sets must all have one size. Sets already answered are skipped,
        and a chunk that names a column outside the view is left to the
        one-query path, which raises.
        """
        answered = self.answered
        g2: list[tuple[str, ...]] = []
        fz: list[tuple[str, ...]] = []
        try:
            for s in subsets:
                if (x, y, s) not in answered:
                    (g2 if self._uses_g2(x, y, s) else fz).append(s)
        except UnknownColumnError:
            return
        found = []
        # a lone G^2 set is left to g_squared_test, which answers it 20-40%
        # faster than a batch of one on the benchmark's wide table
        if len(g2) > 1:
            found += zip(g2, g_squared_batch(x, y, g2, self.view))
        if fz:
            try:
                corr, index = self._correlation()
            except CausalTabError:
                pass  # raised again by the first query that asks
            else:
                givens = [[index[c] for c in s] for s in fz]
                found += zip(
                    fz, fisher_z_batch(corr, self.view.n_rows, index[x], index[y], givens)
                )
        for s, p in found:
            if p is not None:
                answered[(x, y, s)] = p


def oracle_ci_test(dag: MixedGraph) -> CITest:
    """Replace statistics with exact d-separation on a declared directed graph.

    Variables not named in the graph count as isolated nodes: independent
    of everything and inert when conditioned on.
    """
    tester = d_separation_tester(dag)
    known = set(dag.nodes)

    def test(x: str, y: str, given: tuple[str, ...]) -> float:
        if x not in known or y not in known:
            return 1.0
        inside = tuple(s for s in given if s in known)
        return 1.0 if tester(x, y, inside) else 0.0

    return test


def _separating_set(
    ci: CITest, x: str, y: str, subsets: Iterable[tuple[str, ...]], alpha: float
) -> tuple[int, tuple[str, ...] | None]:
    """Ask ``ci`` about (x, y, S) for each S in turn until one gives p > alpha.

    Returns the number of queries asked and that S, or None. A test with a
    ``prefetch`` method is first handed each chunk of up to ``_CHUNK``
    sets, so it can answer them together; the queries are then asked one
    at a time all the same, so the decision and the count are those of
    asking one at a time.
    """
    prefetch = getattr(ci, "prefetch", None)
    subsets = iter(subsets)
    asked = 0
    while chunk := list(islice(subsets, _CHUNK)):
        if prefetch is not None:
            prefetch(x, y, chunk)
        for sset in chunk:
            asked += 1
            if ci(x, y, sset) > alpha:
                return asked, sset
    return asked, None


def learn_skeleton(
    view: DatasetView,
    config: LearnConfig | None = None,
    prior: PriorKnowledge | None = None,
    ci_test: CITest | None = None,
) -> SkeletonResult:
    """PC-stable adjacency search over the view's columns.

    At level l, candidate conditioning sets are drawn from the adjacency
    frozen at the level start, so the output does not depend on the order
    in which pairs are processed within a level. Forbidden pairs are
    removed up front with an empty sepset; required pairs are never tested.
    """
    config = config or LearnConfig()
    cols = list(view.columns)
    if len(cols) < 2:
        raise ValueError("need at least 2 columns to learn a skeleton")
    if not view.is_complete():
        bad = [c for c in cols if np.isnan(view.coded(c)).any()]
        raise IncompleteViewError(f"view has missing cells in {bad}; take complete cases first")
    if prior is not None:
        prior.validate_names(cols)
    ci = ci_test or mixed_ci_test(view)
    order = {c: i for i, c in enumerate(cols)}

    adj: dict[str, set[str]] = {c: set(cols) - {c} for c in cols}
    sepsets = SepSetStore()
    knowledge_removed: set[frozenset[str]] = set()
    if prior is not None:
        for pair in prior.forbidden:
            u, v = sorted(pair, key=order.__getitem__)
            adj[u].discard(v)
            adj[v].discard(u)
            sepsets.record(u, v, ())
            knowledge_removed.add(pair)

    tests_run = 0
    level = 0
    while config.max_cond_size is None or level <= config.max_cond_size:
        frozen = {c: sorted(adj[c], key=order.__getitem__) for c in cols}
        if not any(len(frozen[x]) >= level + 1 for x in cols):
            break
        for x in cols:
            for y in frozen[x]:
                if y not in adj[x]:
                    continue  # removed earlier in this level
                if prior is not None and prior.requires(x, y):
                    continue
                candidates = [c for c in frozen[x] if c != y]
                if len(candidates) < level:
                    continue
                asked, sset = _separating_set(
                    ci, x, y, combinations(candidates, level), config.alpha
                )
                tests_run += asked
                if sset is not None:
                    adj[x].discard(y)
                    adj[y].discard(x)
                    sepsets.record(x, y, sset)
        level += 1

    graph = MixedGraph(cols)
    for i, u in enumerate(cols):
        for v in cols[i + 1:]:
            if v in adj[u]:
                graph.add_edge(u, v)
    return SkeletonResult(
        graph=graph,
        sepsets=sepsets,
        tests_run=tests_run,
        knowledge_removed=frozenset(knowledge_removed),
    )


def orient_v_structures(result: SkeletonResult) -> MixedGraph:
    """Orient x *-> z <-* y for every unshielded triple whose sepset omits z."""
    g = result.graph.copy()
    for z in g.nodes:
        for x, y in combinations(g.neighbors(z), 2):
            if g.has_edge(x, y):
                continue
            sep = result.sepsets.get(x, y)
            if sep is None or z in sep:
                continue
            g.set_mark(x, z, at=z, mark=ARROW)
            g.set_mark(y, z, at=z, mark=ARROW)
    return g


def possible_dsep_set(g: MixedGraph, x: str) -> set[str]:
    """Nodes reachable from x along paths whose inner triples are colliders or triangles."""
    if not g.has_node(x):
        raise UnknownNodeError(f"unknown node {x!r}")
    out: set[str] = set()
    visited: set[tuple[str, str]] = set()
    queue: list[tuple[str, str]] = []
    for nb in g.neighbors(x):
        visited.add((x, nb))
        out.add(nb)
        queue.append((x, nb))
    while queue:
        a, b = queue.pop()
        for c in g.neighbors(b):
            if c == a or c == x or (b, c) in visited:
                continue
            collider = (
                g.mark_at(a, b, at=b) == ARROW and g.mark_at(b, c, at=b) == ARROW
            )
            if collider or g.has_edge(a, c):
                visited.add((b, c))
                out.add(c)
                queue.append((b, c))
    out.discard(x)
    return out


def possible_dsep_prune(
    graph: MixedGraph,
    sepsets: SepSetStore,
    config: LearnConfig,
    ci_test: CITest,
    prior: PriorKnowledge | None = None,
) -> SkeletonResult:
    """Test remaining edges against possible-d-sep subsets and re-orient.

    Expects v-structures already oriented. Conditioning sets are drawn in
    the graph's node order.
    """
    order = {c: i for i, c in enumerate(graph.nodes)}
    g = graph.copy()
    seps = sepsets.copy()
    tests_run = 0
    # possible-d-sep sets are computed on the graph as handed in, as usual
    pd_cache: dict[str, set[str]] = {}
    for e in graph.edges():
        x, y = e.u, e.v
        if prior is not None and prior.requires(x, y):
            continue
        removed = False
        for anchor in (x, y):
            if anchor not in pd_cache:
                pd_cache[anchor] = possible_dsep_set(graph, anchor)
            pool = sorted(pd_cache[anchor] - {x, y}, key=order.__getitem__)
            limit = len(pool) if config.max_cond_size is None else min(config.max_cond_size, len(pool))
            for size in range(1, limit + 1):
                asked, sset = _separating_set(
                    ci_test, x, y, combinations(pool, size), config.alpha
                )
                tests_run += asked
                if sset is not None:
                    g.remove_edge(x, y)
                    seps.record(x, y, sset)
                    removed = True
                    break
            if removed:
                break
    pruned = SkeletonResult(g.skeleton(), seps, tests_run)
    return SkeletonResult(orient_v_structures(pruned), seps, tests_run)


# -- orientation propagation rules --------------------------------------------

def _creates_directed_cycle(g: MixedGraph, src: str, dst: str) -> bool:
    """Would adding src -> dst close a cycle among fully directed edges?"""
    stack = [dst]
    seen = {dst}
    while stack:
        node = stack.pop()
        if node == src:
            return True
        for child in g.children(node):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


def _direct(g: MixedGraph, b: str, c: str) -> bool:
    """Orient b -> c, touching only circle marks; returns True on change."""
    e = g.edge(b, c)
    changed = False
    if e.mark_at(b) == CIRCLE and not _creates_directed_cycle(g, b, c):
        g.set_mark(b, c, at=b, mark=TAIL)
        changed = True
    if g.mark_at(b, c, at=c) == CIRCLE:
        g.set_mark(b, c, at=c, mark=ARROW)
        changed = True
    return changed


def _rule1(g: MixedGraph) -> bool:
    changed = False
    for b in g.nodes:
        for a in g.neighbors(b):
            if g.mark_at(a, b, at=b) != ARROW:
                continue
            for c in g.neighbors(b):
                if c == a or g.has_edge(a, c):
                    continue
                if g.mark_at(b, c, at=b) != CIRCLE:
                    continue
                if g.mark_at(b, c, at=c) == TAIL:
                    continue
                changed |= _direct(g, b, c)
    return changed


def _rule2(g: MixedGraph) -> bool:
    changed = False
    for a in g.nodes:
        for c in g.neighbors(a):
            if g.mark_at(a, c, at=c) != CIRCLE:
                continue
            for b in g.neighbors(a):
                if b == c or not g.has_edge(b, c):
                    continue
                chain1 = (
                    g.edge(a, b).is_directed_out_of(a)
                    and g.mark_at(b, c, at=c) == ARROW
                )
                chain2 = (
                    g.mark_at(a, b, at=b) == ARROW
                    and g.edge(b, c).is_directed_out_of(b)
                )
                if chain1 or chain2:
                    g.set_mark(a, c, at=c, mark=ARROW)
                    changed = True
                    break
    return changed


def _rule3(g: MixedGraph) -> bool:
    changed = False
    for b in g.nodes:
        into_b = [n for n in g.neighbors(b) if g.mark_at(n, b, at=b) == ARROW]
        for a, c in combinations(into_b, 2):
            if g.has_edge(a, c):
                continue
            for d in g.neighbors(b):
                if d in (a, c):
                    continue
                if g.mark_at(d, b, at=b) != CIRCLE:
                    continue
                if not (g.has_edge(a, d) and g.has_edge(c, d)):
                    continue
                if g.mark_at(a, d, at=d) != CIRCLE or g.mark_at(c, d, at=d) != CIRCLE:
                    continue
                g.set_mark(d, b, at=b, mark=ARROW)
                changed = True
                break
    return changed


def _find_discriminating_path(
    g: MixedGraph, b: str, c: str
) -> tuple[str, str] | None:
    """Search for a discriminating path <theta, ..., a, b, c> for b.

    Every vertex strictly between theta and b must be a collider on the
    path and a parent of c; theta must not be adjacent to c. Returns
    (theta, a) where a is the vertex preceding b, or None.
    """
    starts = [
        a
        for a in g.neighbors(b)
        if a != c
        and g.has_edge(a, c)
        and g.edge(a, c).is_directed_out_of(a)
        and g.mark_at(a, b, at=a) == ARROW
    ]
    visited: set[tuple[str, str]] = set()
    stack: list[tuple[str, str, str]] = []  # (u, successor, first_a)
    for a in starts:
        stack.append((a, b, a))
        visited.add((a, b))
    while stack:
        u, succ, first_a = stack.pop()
        for t in g.neighbors(u):
            if t in (succ, b, c) or (t, u) in visited:
                continue
            if g.mark_at(t, u, at=u) != ARROW:
                continue  # u must be a collider on the path
            if not g.has_edge(t, c):
                return t, first_a
            if (
                g.edge(t, c).is_directed_out_of(t)
                and g.mark_at(t, u, at=t) == ARROW
            ):
                visited.add((t, u))
                stack.append((t, u, first_a))
    return None


def _rule4(g: MixedGraph, sepsets: SepSetStore) -> bool:
    changed = False
    for b in g.nodes:
        for c in g.neighbors(b):
            if g.mark_at(b, c, at=b) != CIRCLE:
                continue
            found = _find_discriminating_path(g, b, c)
            if found is None:
                continue
            theta, a = found
            sep = sepsets.get(theta, c)
            if sep is None:
                continue
            if b in sep:
                changed |= _direct(g, b, c)
            else:
                for u, v, at in ((a, b, a), (a, b, b), (b, c, b), (b, c, c)):
                    if g.mark_at(u, v, at=at) == CIRCLE:
                        g.set_mark(u, v, at=at, mark=ARROW)
                        changed = True
    return changed


def apply_orientation_rules(
    g: MixedGraph, sepsets: SepSetStore | None = None
) -> MixedGraph:
    """Propagate the standard orientation rules (R1-R4) to a fixpoint.

    Only circle marks are ever modified, so existing arrowheads are never
    reversed; fully directed edges are only added when they close no
    directed cycle. R4 needs sepsets to decide its branches and is skipped
    when none are supplied.
    """
    out = g.copy()
    changed = True
    while changed:
        changed = False
        changed |= _rule1(out)
        changed |= _rule2(out)
        changed |= _rule3(out)
        if sepsets is not None:
            changed |= _rule4(out, sepsets)
    return out


def run_fci(
    view: DatasetView,
    config: LearnConfig | None = None,
    prior: PriorKnowledge | None = None,
    ci_test: CITest | None = None,
) -> FciResult:
    """Full constraint-based run: skeleton, v-structures, pd-sep stage, rules.

    Both search stages share one CI test, so the default test standardizes
    the view once and answers a query the pd-sep stage repeats from its
    memo.
    """
    config = config or LearnConfig()
    ci = ci_test or mixed_ci_test(view)
    skel = learn_skeleton(view, config, prior, ci)
    graph = orient_v_structures(skel)
    sepsets = skel.sepsets
    tests = skel.tests_run
    if config.do_possible_dsep:
        pruned = possible_dsep_prune(graph, sepsets, config, ci, prior)
        graph, sepsets = pruned.graph, pruned.sepsets
        tests += pruned.tests_run
    if config.do_orientation:
        graph = apply_orientation_rules(graph, sepsets)
    return FciResult(graph=graph, skeleton=skel, sepsets=sepsets, tests_run=tests)
