"""Independent reference implementations used to derive expected values.

Everything here is deliberately written against the definitions rather
than the package's code paths: exact Fraction arithmetic, exhaustive
enumeration and brute-force searches, so tests compare two independent
routes to each answer. The ``reference_*`` functions keep earlier
versions of library code verbatim, so tests can require the optimized
code to give equal answers; ``reference_load_csv`` is the CSV reader
that kept one Python float per cell.
``d_separated`` and ``fisher_z_ci_test`` are single-query entry points
over library kernels that only tests call.

The linear Gaussian SEM sampler (``LinearSEM``, ``sem_from_edges``,
``sample_sem``) and the structural Hamming distance (``shd``) are
test-data generators and graph scorers: tests draw data with a known
causal graph and measure how far a learned graph is from it. The
library itself ships only the clinical cohort behind ``causaltab synth``.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from causaltab.data import (
    KIND_CONTINUOUS,
    MISSING_TOKENS,
    ColumnSchema,
    Dataset,
    load_schema,
)
from causaltab.errors import BadCellError, CausalTabError, SchemaMismatchError
from causaltab.graph import ARROW, TAIL, MixedGraph, _directed_maps, topological_order


# -- exhaustive DAG enumeration -------------------------------------------------

def enumerate_dags(names: list[str]):
    """Yield every DAG over ``names`` as a tuple of directed (src, dst) pairs."""
    n = len(names)
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        children = [[] for _ in range(n)]
        indeg = [0] * n
        for (i, j), s in zip(pairs, states):
            if s == 1:
                edges.append((i, j))
                children[i].append(j)
                indeg[j] += 1
            elif s == 2:
                edges.append((j, i))
                children[j].append(i)
                indeg[i] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        seen = 0
        deg = list(indeg)
        while queue:
            u = queue.pop()
            seen += 1
            for w in children[u]:
                deg[w] -= 1
                if deg[w] == 0:
                    queue.append(w)
        if seen == n:
            yield tuple((names[a], names[b]) for a, b in edges)


def dag_vstructures(edges: tuple[tuple[str, str], ...]) -> set:
    """Unshielded colliders of a DAG given as directed pairs."""
    parents: dict[str, set[str]] = {}
    adj: set[frozenset[str]] = set()
    for a, b in edges:
        parents.setdefault(b, set()).add(a)
        adj.add(frozenset((a, b)))
    out = set()
    for z, pars in parents.items():
        for x, y in itertools.combinations(sorted(pars), 2):
            if frozenset((x, y)) not in adj:
                out.add((tuple(sorted((x, y))), z))
    return out


# -- brute-force d-separation via path enumeration --------------------------------

def dsep_by_paths(edges, nodes, x, y, s) -> bool:
    """d-separation decided by enumerating every simple undirected path."""
    s = set(s)
    children: dict[str, set[str]] = {n: set() for n in nodes}
    parents: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        children[a].add(b)
        parents[b].add(a)

    def descendants(v):
        out = set()
        stack = [v]
        while stack:
            u = stack.pop()
            for c in children[u]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

    neighbors = {n: children[n] | parents[n] for n in nodes}

    def blocked(path):
        for i in range(1, len(path) - 1):
            prev, mid, nxt = path[i - 1], path[i], path[i + 1]
            collider = mid in children[prev] and mid in children[nxt]
            if collider:
                if mid not in s and not (descendants(mid) & s):
                    return True  # inactive collider blocks this path
            else:
                if mid in s:
                    return True
        return False

    stack = [(x, [x])]
    while stack:
        node, path = stack.pop()
        if node == y:
            if not blocked(path):
                return False
            continue
        for nb in neighbors[node]:
            if nb not in path:
                stack.append((nb, path + [nb]))
    return True


def d_separated(dag, x: str, y: str, s=()) -> bool:
    """Exact d-separation of x and y given s in a fully directed acyclic graph.

    Each call rebuilds the DAG maps and runs its own reachability search,
    with no state kept between queries.
    """
    from causaltab.errors import UnknownNodeError
    from causaltab.graph import _reachable

    parents, children = _directed_maps(dag)
    topological_order(dag)
    for name in (x, y, *s):
        if not dag.has_node(name):
            raise UnknownNodeError(f"unknown node {name!r}")
    return y not in _reachable(x, frozenset(s), parents, children)


# -- exact Fisher test ------------------------------------------------------------

def fisher_exact_fraction(a: int, b: int, c: int, d: int) -> float:
    """Two-sided exact test summed in Fraction arithmetic.

    Includes every table whose point probability is at most the observed
    one within the same 1e-7 relative tolerance the implementation
    documents (exact comparison first, so ties never depend on floats).
    """
    r1, r2, c1 = a + b, c + d, a + c
    lo, hi = max(0, c1 - r2), min(r1, c1)
    weights = {
        k: Fraction(math.comb(r1, k) * math.comb(r2, c1 - k))
        for k in range(lo, hi + 1)
    }
    total = sum(weights.values())
    w_obs = weights[a]
    tol = Fraction(10000001, 10000000)
    acc = Fraction(0)
    for w in weights.values():
        if w <= w_obs or w <= w_obs * tol:
            acc += w
    return float(acc / total)


# -- statistics helpers -------------------------------------------------------------

def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    return float(xc @ yc / math.sqrt((xc @ xc) * (yc @ yc)))


def bfs_within(edge_list, start, k) -> set:
    """Hop-limited BFS over an undirected edge list (independent of MixedGraph)."""
    adj: dict[str, set[str]] = {}
    for u, v in edge_list:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    frontier = {start}
    seen = {start}
    out = set()
    for _ in range(k):
        nxt = set()
        for node in frontier:
            for nb in adj.get(node, ()):
                if nb not in seen:
                    seen.add(nb)
                    out.add(nb)
                    nxt.add(nb)
        frontier = nxt
    return out


def complete_rows_scan(columns: dict[str, list]) -> list[int]:
    """Row indices with no None cell, by a per-row scan."""
    names = list(columns)
    n = len(columns[names[0]]) if names else 0
    out = []
    for i in range(n):
        if all(columns[c][i] is not None for c in names):
            out.append(i)
    return out


# -- decision-tree split search ------------------------------------------------------

def best_stump_accuracy(points: list[tuple[float, float, int]]) -> float:
    """Best depth-1 tree training accuracy by exhaustive split search.

    Points are (x0, x1, label). Ties in leaves predict class 0, matching
    the documented leaf convention.
    """
    n = len(points)
    best = _majority_accuracy([p[2] for p in points])
    for dim in (0, 1):
        values = sorted({p[dim] for p in points})
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2
            left = [p[2] for p in points if p[dim] <= thr]
            right = [p[2] for p in points if p[dim] > thr]
            acc = (
                _majority_count(left) + _majority_count(right)
            ) / n
            best = max(best, acc)
    return best


def _majority_count(labels) -> int:
    c0 = sum(1 for v in labels if v == 0)
    c1 = len(labels) - c0
    return max(c0, c1) if c0 != c1 else c0  # tie predicts class 0


def _majority_accuracy(labels) -> float:
    return _majority_count(labels) / len(labels) if labels else 0.0


def _reference_best_split_for_column(values: np.ndarray, y: np.ndarray):
    """(weighted Gini, threshold) of one column's best cut, or None when none exists."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    sy = y[order]
    cuts = np.nonzero(np.diff(sv) > 0)[0]
    if cuts.size == 0:
        return None
    n = sv.shape[0]
    ones = np.cumsum(sy == 0)
    n_left = cuts + 1
    n_right = n - n_left
    c0_left = ones[cuts].astype(float)
    c0_right = ones[-1] - c0_left
    p0l = c0_left / n_left
    p0r = c0_right / n_right
    gini_l = 1.0 - p0l**2 - (1.0 - p0l) ** 2
    gini_r = 1.0 - p0r**2 - (1.0 - p0r) ** 2
    weighted = (n_left * gini_l + n_right * gini_r) / n
    pos = int(np.argmin(weighted))  # first minimum: smallest threshold wins ties
    cut = cuts[pos]
    thr = 0.5 * (sv[cut] + sv[cut + 1])
    return float(weighted[pos]), float(thr)


def reference_fit_tree(view, features, outcome: str, max_depth: int):
    """The tree that ``fit_tree`` must build, grown column by column and node by node.

    Each node re-sorts every feature over its own rows and keeps the
    first strictly smaller weighted Gini, so ties go to the earliest
    feature and then the smallest threshold; class counts are recounted
    at every node.
    """
    from causaltab.tree import Leaf, Split

    features = list(features)
    X = view.matrix(features)
    y = view.coded(outcome).astype(np.int64)

    def leaf(counts):
        return Leaf(class_counts=counts, predicted=0 if counts[0] >= counts[1] else 1)

    def grow(idx: np.ndarray, depth: int):
        n0 = int((y[idx] == 0).sum())
        counts = (n0, int(idx.shape[0] - n0))
        if depth > max_depth or counts[0] == 0 or counts[1] == 0:
            return leaf(counts)
        best = None
        for j in range(len(features)):
            found = _reference_best_split_for_column(X[idx, j], y[idx])
            if found is None:
                continue
            gini, thr = found
            if best is None or gini < best[0]:
                best = (gini, j, thr)
        if best is None:
            return leaf(counts)
        _, j, thr = best
        mask = X[idx, j] <= thr
        left = grow(idx[mask], depth + 1)
        right = grow(idx[~mask], depth + 1)
        return Split(features[j], thr, left, right, counts)

    return grow(np.arange(X.shape[0]), 1)


def reference_kfold_cv(view, features, outcome: str, k: int, max_depth: int, seed: int):
    """``kfold_cv`` as written before the folds of a CV shared one presort.

    Every fold builds fresh training and test views, fits its tree on the
    training view alone and scores it with ``evaluate``; ``kfold_cv`` must
    return equal ``Metrics``.
    """
    from causaltab.data import DatasetView
    from causaltab.errors import IncompleteViewError, TooFewRowsError
    from causaltab.tree import Metrics, _stratified_folds, evaluate, fit_tree

    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if view.n_rows < k:
        raise TooFewRowsError(f"{view.n_rows} rows cannot fill {k} folds")
    features = list(features)
    y = view.coded(outcome)
    if np.isnan(y).any():
        raise IncompleteViewError("outcome column has missing cells")
    rng = np.random.default_rng(seed)
    fold = _stratified_folds(y.astype(np.int64), k, rng)

    sums = np.zeros(4)
    pooled = np.zeros(4, dtype=np.int64)
    for f in range(k):
        test_rows = np.nonzero(fold == f)[0]
        train_rows = np.nonzero(fold != f)[0]
        if test_rows.size == 0 or train_rows.size == 0:
            raise TooFewRowsError(f"fold {f} is empty with k={k}, n={view.n_rows}")
        train = DatasetView(view.source, view.columns, view.rows[train_rows])
        test = DatasetView(view.source, view.columns, view.rows[test_rows])
        tree = fit_tree(train, features, outcome, max_depth)
        m = evaluate(tree, test, outcome)
        sums += (m.sensitivity, m.specificity, m.f1, m.accuracy)
        pooled += (m.tp, m.fn, m.tn, m.fp)
    sens, spec, f1, acc = (sums / k).tolist()
    return Metrics(sens, spec, f1, acc, *(int(v) for v in pooled))


def tree_depth(tree) -> int:
    """Number of splits along the deepest root-to-leaf path."""
    from causaltab.tree import Split, iter_nodes

    depths = [d for node, d in iter_nodes(tree) if isinstance(node, Split)]
    return max(depths) if depths else 0


# -- conditional-independence tests ----------------------------------------------------

def reference_g_squared_test(x: str, y: str, given, view):
    """The G^2 test as written before codes were decoded once per view.

    Every call looks up each column's schema, gathers the column from the
    view, scans it for missing cells and casts it, then scores the table;
    ``g_squared_test`` must return the same statistic, p-value and dof and
    raise the same errors.
    """
    from causaltab.errors import IncompleteViewError, NotCategoricalError
    from causaltab.stats import TestResult, chisq_sf

    names = [x, y, *given]
    schemas = []
    for name in names:
        sch = view.schema_for(name)
        if not sch.is_categorical:
            raise NotCategoricalError(f"column {name!r} is {sch.kind}, not categorical")
        schemas.append(sch)
    cols = [view.coded(name) for name in names]
    for name, arr in zip(names, cols):
        if np.isnan(arr).any():
            raise IncompleteViewError(f"column {name!r} has missing cells in this view")
    codes = [arr.astype(np.int64) for arr in cols]
    kx, ky = schemas[0].n_levels, schemas[1].n_levels
    ks = [s.n_levels for s in schemas[2:]]

    strata = np.zeros(codes[0].shape[0], dtype=np.int64)
    n_strata = 1
    for c, k in zip(codes[2:], ks):
        strata = strata * k + c
        n_strata *= k
    flat = (strata * kx + codes[0]) * ky + codes[1]
    table = np.bincount(flat, minlength=n_strata * kx * ky).reshape(n_strata, kx, ky)

    totals = table.sum(axis=(1, 2), keepdims=True).astype(float)
    row = table.sum(axis=2, keepdims=True).astype(float)
    col = table.sum(axis=1, keepdims=True).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = row * col / totals
        terms = np.where(table > 0, table * np.log(table / expected), 0.0)
    g2 = max(0.0, 2.0 * float(np.nansum(terms)))
    dof = (kx - 1) * (ky - 1) * int(np.prod(ks)) if ks else (kx - 1) * (ky - 1)
    return TestResult(statistic=g2, p_value=min(chisq_sf(g2, dof), 1.0), dof=float(dof))


def _reference_partial_correlation(corr: np.ndarray, i: int, j: int, given) -> float:
    """Partial correlation of variables i, j given ``given`` from a correlation matrix."""
    from causaltab.errors import SingularCorrelationError

    if not given:
        return float(corr[i, j])
    idx = [i, j, *given]
    sub = corr[idx][:, idx]
    try:
        inv = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        raise SingularCorrelationError(
            f"correlation submatrix for ({i}, {j} | {tuple(given)}) is singular"
        ) from None
    denom = inv[0, 0] * inv[1, 1]
    if not np.isfinite(denom) or denom <= 0:
        raise SingularCorrelationError(
            f"correlation submatrix for ({i}, {j} | {tuple(given)}) is ill-conditioned"
        )
    return float(-inv[0, 1] / math.sqrt(denom))


def _reference_fisher_z(rho: float, dof: int) -> tuple[float, float]:
    """Fisher-z statistic and p-value in scalar ``math`` calls, as ``stats._fisher_z``."""
    clamped = min(max(rho, -1.0 + 1e-15), 1.0 - 1e-15)
    stat = math.sqrt(dof) * math.atanh(clamped)
    return stat, min(math.erfc(abs(stat) / math.sqrt(2.0)), 1.0)


def reference_fisher_z_from_correlation(corr: np.ndarray, n: int, i: int, j: int, given):
    """The Fisher-z test as written when each query inverted its own submatrix.

    ``stats.fisher_z_from_correlation`` must return the same statistic,
    p-value, dof and effect and raise the same errors, and
    ``stats.fisher_z_batch`` the same p-values, with None where this raises.
    """
    from causaltab.errors import SampleTooSmallError
    from causaltab.stats import TestResult

    k = len(given)
    if n - k - 3 <= 0:
        raise SampleTooSmallError(f"need n > |S| + 3; n={n}, |S|={k}")
    rho = _reference_partial_correlation(corr, i, j, given)
    stat, p = _reference_fisher_z(rho, n - k - 3)
    return TestResult(statistic=stat, p_value=p, dof=float(n - k - 3), effect=rho)


def fisher_z_ci_test(x: str, y: str, given, m):
    """Gaussian conditional-independence test of x against y given a column set.

    ``m`` is a ``StandardizedMatrix``. The partial correlation is obtained
    by inverting the correlation submatrix of (x, y, given); the statistic
    is sqrt(n-|S|-3)*atanh(rho).
    """
    from causaltab.stats import fisher_z_from_correlation

    cols = [m.index(x), m.index(y)] + [m.index(s) for s in given]
    sub = m.matrix[:, cols]
    corr = np.corrcoef(sub, rowvar=False)
    corr = np.atleast_2d(corr)
    return fisher_z_from_correlation(corr, m.n_rows, 0, 1, list(range(2, len(cols))))


def reference_mixed_ci_test(view):
    """The kind-dispatching CI test as written before its answers were memoized.

    Every query runs its kernel; ``discovery.mixed_ci_test`` must return
    the same p-value for every query and raise the same errors.
    """
    from causaltab.data import standardize
    from causaltab.stats import fisher_z_from_correlation, g_squared_test

    categorical = {c: view.schema_for(c).is_categorical for c in view.columns}
    state: dict[str, object] = {}

    def _corr() -> tuple[np.ndarray, dict[str, int]]:
        if "corr" not in state:
            std = standardize(view)
            state["corr"] = np.corrcoef(std.matrix, rowvar=False)
            state["index"] = {c: i for i, c in enumerate(std.columns)}
        return state["corr"], state["index"]  # type: ignore[return-value]

    def test(x: str, y: str, given: tuple[str, ...]) -> float:
        if categorical[x] and categorical[y] and all(categorical[s] for s in given):
            return g_squared_test(x, y, given, view).p_value
        corr, index = _corr()
        res = fisher_z_from_correlation(
            corr, view.n_rows, index[x], index[y], [index[s] for s in given]
        )
        return res.p_value

    return test


# -- CPDAG construction by equivalence-class grouping ----------------------------------

def group_dags_by_class(names: list[str]):
    """Group all DAGs over ``names`` into Markov equivalence classes.

    Returns a mapping signature -> list of member DAGs, where the
    signature is (frozenset of skeleton pairs, frozenset of v-structures).
    """
    classes: dict[tuple, list] = {}
    for edges in enumerate_dags(names):
        skeleton = frozenset(frozenset(e) for e in edges)
        vstructs = frozenset(dag_vstructures(edges))
        classes.setdefault((skeleton, vstructs), []).append(edges)
    return classes


def cpdag_of_class(members: list) -> tuple[set, set]:
    """(directed pairs, undirected pairs) of the essential graph of a class."""
    skeleton = {frozenset(e) for e in members[0]}
    directed = set()
    undirected = set()
    for pair in skeleton:
        u, v = sorted(pair)
        orientations = {(a, b) for member in members for (a, b) in member if {a, b} == {u, v}}
        if len(orientations) == 1:
            directed.add(next(iter(orientations)))
        else:
            undirected.add((u, v))
    return directed, undirected


def parent_sets_of_class(members: list, x: str) -> set:
    """Distinct parent sets of x across the DAGs of an equivalence class."""
    out = set()
    for edges in members:
        out.add(frozenset(a for a, b in edges if b == x))
    return out


# -- DOT re-parsing -------------------------------------------------------------

_DOT_NODE_RE = re.compile(r'^\s*"([^"]+)";\s*$')
_DOT_EDGE_RE = re.compile(r'^\s*"([^"]+)"\s*--\s*"([^"]+)"\s*\[.*\];\s*$')


def parse_dot(text: str):
    """Nodes and undirected edges of the DOT text that ``graph.to_dot`` emits."""
    g = MixedGraph()
    for line in text.splitlines():
        m = _DOT_NODE_RE.match(line)
        if m:
            g.add_node(m.group(1))
            continue
        m = _DOT_EDGE_RE.match(line)
        if m:
            g.add_edge(m.group(1), m.group(2))
    return g


# -- row-wise CSV reading and writing -----------------------------------------

def reference_load_csv(path: str | Path, schema_path: str | Path) -> Dataset:
    """Load and validate a CSV against its sidecar schema.

    Cells equal to one of MISSING_TOKENS become missing; any other value
    that does not conform to the column kind/levels raises BadCellError
    naming the row and column rather than being coerced.
    """
    schema = load_schema(schema_path)
    want = [c.name for c in schema]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatchError(f"{path}: empty CSV") from None
        if sorted(header) != sorted(want):
            extra = sorted(set(header) - set(want))
            absent = sorted(set(want) - set(header))
            raise SchemaMismatchError(
                f"{path}: header/schema disagree (unexpected {extra}, missing {absent})"
            )
        data: dict[str, list[float]] = {name: [] for name in want}
        # one decoder per column, in schema order: a categorical cell is
        # looked up as its level rank (KeyError if undeclared), a continuous
        # one parsed as a float (ValueError if not a number)
        decoders = []
        for col in schema:
            if col.is_categorical:
                decode = {label: float(i) for i, label in enumerate(col.levels)}.__getitem__
            else:
                decode = float
            decoders.append((col, header.index(col.name), decode, data[col.name].append))
        for r, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise SchemaMismatchError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            for col, pos, decode, append in decoders:
                cell = row[pos].strip()
                if cell in MISSING_TOKENS:
                    append(math.nan)
                    continue
                try:
                    append(decode(cell))
                except KeyError:
                    raise BadCellError(r, col.name, cell, f"not in levels {list(col.levels)}") from None
                except ValueError:
                    raise BadCellError(r, col.name, cell, "not a number") from None
    if not data[want[0]]:
        raise SchemaMismatchError(f"{path}: no data rows")
    return Dataset(schema, {k: np.asarray(v) for k, v in data.items()})


# -- graph queries ----------------------------------------------------------------

def directed_edges(graph: MixedGraph) -> list[tuple[str, str]]:
    """Fully directed pairs (src, dst) of ``graph``: tail at src, arrow at dst."""
    out = []
    for e in graph.edges():
        if e.mark_u == TAIL and e.mark_v == ARROW:
            out.append((e.u, e.v))
        elif e.mark_v == TAIL and e.mark_u == ARROW:
            out.append((e.v, e.u))
    return out


# -- linear Gaussian SEM ------------------------------------------------------

@dataclass(frozen=True)
class LinearSEM:
    """Fully directed acyclic graph with edge coefficients and per-node noise."""

    dag: MixedGraph
    coefficients: dict[tuple[str, str], float]
    noise_sd: dict[str, float]

    def __post_init__(self):
        topological_order(self.dag)  # raises CyclicGraphError when not a DAG
        for src, dst in directed_edges(self.dag):
            if (src, dst) not in self.coefficients:
                raise ValueError(f"edge {src!r}->{dst!r} has no coefficient")
        for n in self.dag.nodes:
            sd = self.noise_sd.get(n)
            if sd is None or sd <= 0:
                raise ValueError(f"node {n!r} needs a positive noise sd")


def sem_from_edges(
    edges: Mapping[tuple[str, str], float] | Iterable[tuple[str, str, float]],
    noise_sd: Mapping[str, float] | float = 1.0,
    nodes: Sequence[str] | None = None,
) -> LinearSEM:
    """Convenience constructor from (src, dst, coefficient) triples."""
    if isinstance(edges, Mapping):
        triples = [(s, t, c) for (s, t), c in edges.items()]
    else:
        triples = list(edges)
    names: list[str] = list(nodes) if nodes is not None else []
    for s, t, _ in triples:
        for n in (s, t):
            if n not in names:
                names.append(n)
    dag = MixedGraph(names)
    coeffs = {}
    for s, t, c in triples:
        dag.add_directed_edge(s, t)
        coeffs[(s, t)] = float(c)
    if isinstance(noise_sd, Mapping):
        sds = {n: float(noise_sd.get(n, 1.0)) for n in names}
    else:
        sds = {n: float(noise_sd) for n in names}
    return LinearSEM(dag=dag, coefficients=coeffs, noise_sd=sds)


def sample_sem(sem: LinearSEM, n: int, seed: int) -> Dataset:
    """Ancestral sampling of a linear Gaussian SEM into a continuous Dataset."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    parents, _ = _directed_maps(sem.dag)
    values: dict[str, np.ndarray] = {}
    for node in topological_order(sem.dag):
        col = sem.noise_sd[node] * rng.standard_normal(n)
        for p in parents[node]:
            col = col + sem.coefficients[(p, node)] * values[p]
        values[node] = col
    schema = [
        ColumnSchema(name=node, kind=KIND_CONTINUOUS, category="synthetic")
        for node in sem.dag.nodes
    ]
    return Dataset(schema, values)


# -- structural Hamming distance ---------------------------------------------------

class NodeMismatchError(CausalTabError):
    """Two graphs compared over different node sets."""


def shd(g1: MixedGraph, g2: MixedGraph, skeleton_only: bool = False) -> int:
    """Edit count (edge insertions/deletions plus endpoint-mark changes) g1 -> g2."""
    if set(g1.nodes) != set(g2.nodes):
        raise NodeMismatchError(
            f"node sets differ: {sorted(set(g1.nodes) ^ set(g2.nodes))}"
        )
    nodes = sorted(g1.nodes)
    count = 0
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            e1 = g1.edge(u, v)
            e2 = g2.edge(u, v)
            if (e1 is None) != (e2 is None):
                count += 1
            elif e1 is not None and not skeleton_only:
                if e1.mark_at(u) != e2.mark_at(u):
                    count += 1
                if e1.mark_at(v) != e2.mark_at(v):
                    count += 1
    return count
