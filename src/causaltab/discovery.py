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
from functools import cached_property
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .data import DatasetView
from .errors import (
    CausalTabError,
    SingularCorrelationError,
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

#: The most conditioning sets of one search that a round hands to a CI
#: test's batch path. A chunk never spans set sizes or possible-d-sep
#: anchors. A larger chunk makes fewer rounds, but computes more sets that
#: are never asked, once an earlier set has removed the edge.
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

    Its batch path, ``prefetch(queries)``, answers a search round's
    queries, across pairs and set sizes, into the memo with one call per
    kind of the batch kernel, of which each one-query test is a batch of
    one, so the p-values are those of asking one at a time. The searches
    then ask each query as before, so decisions and ``tests_run`` do not
    change, and a query whose kernel would raise raises only when asked.
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
        self.columns = frozenset(view.columns)
        self.categorical = frozenset(c for c in view.columns if view.schema_for(c).is_categorical)
        self.answered: dict[tuple[str, str, tuple[str, ...]], float] = {}

    @cached_property
    def _correlation(self) -> tuple[np.ndarray, dict[str, int]]:
        view = self.view
        return np.corrcoef(view.standardized, rowvar=False), {c: i for i, c in enumerate(view.columns)}

    def __call__(self, x: str, y: str, given: tuple[str, ...]) -> float:
        key = (x, y, given)
        p = self.answered.get(key)
        if p is None:
            p = self.answered[key] = self._p_value(x, y, given)
        return p

    def _p_value(self, x: str, y: str, given: tuple[str, ...]) -> float:
        if self._uses_g2(x, y, given):
            return g_squared_test(x, y, given, self.view).p_value
        corr, index = self._correlation
        try:
            res = fisher_z_from_correlation(
                corr, self.view.n_rows, index[x], index[y], [index[s] for s in given]
            )
        except SingularCorrelationError as exc:
            # the kernel names matrix indices; name the columns instead
            condition = str(exc).rpartition(" is ")[2]
            raise SingularCorrelationError(
                f"correlation submatrix for ({x!r}, {y!r} | {given}) is {condition}"
            ) from None
        return res.p_value

    def _uses_g2(self, x: str, y: str, given: tuple[str, ...]) -> bool:
        """The kind rule: G^2 for an all-categorical scope, Fisher-z otherwise.

        A column outside the view raises UnknownColumnError.
        """
        names = (x, y, *given)
        if self.categorical.issuperset(names):
            return True
        if self.columns.issuperset(names):
            return False
        name = next(name for name in names if name not in self.columns)
        raise UnknownColumnError(f"column {name!r} not selected in view")

    def prefetch(self, queries: list[tuple[str, str, tuple[str, ...]]]) -> None:
        """Answer every (x, y, S) of ``queries`` into the memo, in batches.

        The queries may mix pairs and set sizes. Queries already answered
        are skipped; the rest go to their kind's batch kernel, one call per
        kind. A query naming a column outside the view, or one whose kernel
        would raise, is left to the one-query path, which raises.
        """
        answered = self.answered
        g2: list[tuple[str, str, tuple[str, ...]]] = []
        fz: list[tuple[str, str, tuple[str, ...]]] = []
        for query in queries:
            if query in answered:
                continue
            try:
                (g2 if self._uses_g2(*query) else fz).append(query)
            except UnknownColumnError:
                pass
        found = list(zip(g2, g_squared_batch(g2, self.view))) if g2 else []
        if fz:
            try:
                corr, index = self._correlation
            except CausalTabError:
                pass  # raised again by the first query that asks
            else:
                indexed = [(index[x], index[y], [index[c] for c in s]) for x, y, s in fz]
                found += zip(fz, fisher_z_batch(corr, self.view.n_rows, indexed))
        for query, p in found:
            if p is not None:
                answered[query] = p


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


def _chunks(subsets: Iterable[tuple[str, ...]]) -> Iterator[list[tuple[str, ...]]]:
    """``subsets`` in consecutive lists of up to ``_CHUNK`` sets."""
    subsets = iter(subsets)
    while chunk := list(islice(subsets, _CHUNK)):
        yield chunk


#: One search for a separating set of x and y: its conditioning sets in
#: chunks, each asked in order until one gives p > alpha.
Search = tuple[str, str, Iterator[list[tuple[str, ...]]]]


def _run_searches(
    ci: CITest, searches: list[Search], alpha: float
) -> list[tuple[int, tuple[str, ...] | None] | CausalTabError | None]:
    """Run independent searches in rounds; the outcome of each, in order.

    An outcome is (queries asked, the separating set or None), or the
    package error the search raised, which the caller raises in turn. In
    each round, a test with a ``prefetch`` method is handed every live
    search's next chunk in one call, so it can answer them together. Each
    search then asks its chunk one query at a time, so its outcome is that
    of asking alone. Once a search has raised, the searches after it are
    not run on (their outcome stays None): searching one at a time, the
    first one raising ends the stage.
    """
    prefetch = getattr(ci, "prefetch", None)
    outcomes: list = [None] * len(searches)
    asked = [0] * len(searches)
    live = list(range(len(searches)))
    failed = len(searches)
    while live:
        turn = []
        for k in live:
            if k > failed:
                break
            chunk = next(searches[k][2], None)
            if chunk is None:
                outcomes[k] = asked[k], None
            else:
                turn.append((k, chunk))
        if prefetch is not None and turn:
            prefetch([(searches[k][0], searches[k][1], s) for k, chunk in turn for s in chunk])
        live = []
        for k, chunk in turn:
            if k > failed:
                break
            x, y, _ = searches[k]
            try:
                for sset in chunk:
                    asked[k] += 1
                    if ci(x, y, sset) > alpha:
                        outcomes[k] = asked[k], sset
                        break
                else:
                    live.append(k)
            except CausalTabError as exc:
                outcomes[k], failed = exc, min(failed, k)
    return outcomes


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

    A level's searches are therefore independent, and run together in
    rounds, in two waves: first each pair searched from its earlier
    column, then from its later column each pair still adjacent. Outcomes
    are applied in the loop order of searching one pair at a time, so the
    graph, sepsets, ``tests_run`` and the first error raised are those of
    that loop.
    """
    config = config or LearnConfig()
    cols = list(view.columns)
    if len(cols) < 2:
        raise ValueError("need at least 2 columns to learn a skeleton")
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
        # every search of the level, in turn order: pair (x, y) is searched
        # from x and, if still adjacent, again from y
        turns: list[Search] = []
        for x in cols:
            for y in frozen[x]:
                if prior is not None and prior.requires(x, y):
                    continue
                candidates = [c for c in frozen[x] if c != y]
                if len(candidates) >= level:
                    turns.append((x, y, _chunks(combinations(candidates, level))))
        forward = [k for k, (x, y, _) in enumerate(turns) if order[x] < order[y]]
        outcomes = dict(zip(
            forward, _run_searches(ci, [turns[k] for k in forward], config.alpha)
        ))
        # a reverse search runs only if its forward search kept the edge,
        # and only before the turn of the first forward search that raised
        failed = next((k for k in forward if isinstance(outcomes[k], CausalTabError)), len(turns))
        separated = {
            (turns[k][0], turns[k][1]) for k in forward if k < failed and outcomes[k][1] is not None
        }
        reverse = [
            k for k, (x, y, _) in enumerate(turns[:failed])
            if order[x] > order[y] and (y, x) not in separated
        ]
        outcomes.update(zip(
            reverse, _run_searches(ci, [turns[k] for k in reverse], config.alpha)
        ))
        for k in sorted(outcomes):
            outcome = outcomes[k]
            if isinstance(outcome, CausalTabError):
                raise outcome
            asked, sset = outcome
            tests_run += asked
            if sset is not None:
                x, y, _ = turns[k]
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
    the graph's node order, from x's possible-d-sep set and then from y's,
    by increasing size. The edges' searches are independent of each other,
    so they run together in rounds; each search's chunks never span set
    sizes or anchors.
    """
    order = {c: i for i, c in enumerate(graph.nodes)}
    # possible-d-sep sets are computed on the graph as handed in, as usual
    pd_cache: dict[str, set[str]] = {}

    def chunks(x: str, y: str) -> Iterator[list[tuple[str, ...]]]:
        for anchor in (x, y):
            if anchor not in pd_cache:
                pd_cache[anchor] = possible_dsep_set(graph, anchor)
            pool = sorted(pd_cache[anchor] - {x, y}, key=order.__getitem__)
            limit = len(pool) if config.max_cond_size is None else min(config.max_cond_size, len(pool))
            for size in range(1, limit + 1):
                yield from _chunks(combinations(pool, size))

    edges = [
        (e.u, e.v) for e in graph.edges() if prior is None or not prior.requires(e.u, e.v)
    ]
    g = graph.copy()
    seps = sepsets.copy()
    tests_run = 0
    for (x, y), outcome in zip(edges, _run_searches(
        ci_test, [(x, y, chunks(x, y)) for x, y in edges], config.alpha
    )):
        if isinstance(outcome, CausalTabError):
            raise outcome
        asked, sset = outcome
        tests_run += asked
        if sset is not None:
            g.remove_edge(x, y)
            seps.record(x, y, sset)
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


def apply_orientation_rules(g: MixedGraph, sepsets: SepSetStore) -> MixedGraph:
    """Propagate the standard orientation rules (R1-R4) to a fixpoint.

    Only circle marks are ever modified, so existing arrowheads are never
    reversed; fully directed edges are only added when they close no
    directed cycle. R4 reads ``sepsets`` to decide its branches, and skips
    a discriminating path whose end points have no recorded sepset.
    """
    out = g.copy()
    changed = True
    while changed:
        changed = False
        changed |= _rule1(out)
        changed |= _rule2(out)
        changed |= _rule3(out)
        changed |= _rule4(out, sepsets)
    return out


def run_fci(
    view: DatasetView,
    config: LearnConfig | None = None,
    prior: PriorKnowledge | None = None,
    ci_test: CITest | None = None,
) -> FciResult:
    """Full constraint-based run: skeleton, v-structures, pd-sep stage, rules.

    Both search stages share one CI test, so the default test builds the
    view's correlation matrix once and answers a query the pd-sep stage
    repeats from its memo.
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
