"""Depth-limited binary classification trees with CV and a permutation baseline.

CART-style greedy partitioning on Gini impurity. Class 0 (the first
declared outcome level, death in the clinical encoding) is the positive
class throughout; leaf ties predict it since missing a death
is the costlier triage error.

One grower builds every tree, breadth-first as SLIQ does (Mehta, Agrawal
& Rissanen 1996). It reads a complete feature matrix once, sorts each
continuous feature once, stably, as CART does (Breiman et al. 1984), and
grows the trees of several row masks of it together, one depth level at a
time: all live nodes of a level, of every tree, are segments of one
vectorized pass. Each node's rows are kept once in any order and once
sorted by each continuous feature, and a split partitions them stably,
so no node sorts again. Two kernels score a level's cuts:

- a continuous feature scores every cut between its sorted values from a
  running count of class-0 rows;
- a categorical feature (binary or ordinal codes) scores the boundaries
  between the levels present in a node from class counts per (node,
  feature, level), one ``bincount`` per depth level.

Both use the same floating-point Gini expression per cut, and each
node's per-feature minima are compared in declared feature order, so
ties go to the earliest feature, then the smallest threshold: the trees
are those of a per-node, per-feature search over freshly sorted rows.

``kfold_cv`` reads its view once and hands the grower one row mask per
fold: a stable sort restricted to a subset of the rows is the stable sort
of that subset, so each fold's tree is the one a fresh fit of its
training rows grows. Each fold is scored on the test rows of the same
feature matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .data import KIND_BINARY, ColumnSchema, Dataset, DatasetView, complete_cases
from .errors import EmptyDataError, ExhaustedDrawsError, TooFewRowsError

__all__ = [
    "Leaf",
    "Split",
    "TreeNode",
    "Metrics",
    "fit_tree",
    "predict_matrix",
    "evaluate",
    "kfold_cv",
    "PermutationTrial",
    "PermutationResult",
    "permutation_baseline",
    "tree_features",
    "iter_nodes",
    "tree_to_dot",
]

#: Leaf labels of outcome codes 0 and 1 in the rendered tree.
CLASS_NAMES = ("death", "recovery")

#: A permutation draw is kept when its complete-case count is within this
#: fraction of the target count.
DRAW_TOLERANCE = 0.10

#: Draws per permutation trial before it raises ExhaustedDrawsError.
RETRY_BUDGET = 50

#: Width of the misclassification-rate bins of the permutation histogram.
HISTOGRAM_BIN_WIDTH = 0.01


@dataclass(frozen=True)
class Leaf:
    class_counts: tuple[int, int]
    predicted: int


@dataclass(frozen=True)
class Split:
    feature: str
    threshold: float
    left: "TreeNode"
    right: "TreeNode"
    class_counts: tuple[int, int]


TreeNode = Union[Leaf, Split]


@dataclass(frozen=True)
class Metrics:
    """Confusion-derived rates with the counts they were derived from.

    Averaged cross-validation metrics keep the pooled counts for
    reference; rates are then fold-averages, not pooled-count ratios.
    """

    sensitivity: float
    specificity: float
    f1: float
    accuracy: float
    tp: int
    fn: int
    tn: int
    fp: int

    @classmethod
    def from_counts(cls, tp: int, fn: int, tn: int, fp: int) -> "Metrics":
        n = tp + fn + tn + fp
        sens = tp / (tp + fn) if tp + fn else 0.0
        spec = tn / (tn + fp) if tn + fp else 0.0
        f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        acc = (tp + tn) / n if n else 0.0
        return cls(sens, spec, f1, acc, tp, fn, tn, fp)

    def to_json_dict(self) -> dict:
        return {
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "f1": self.f1,
            "accuracy": self.accuracy,
            "confusion": {"tp": self.tp, "fn": self.fn, "tn": self.tn, "fp": self.fp},
        }


def _leaf(counts: tuple[int, int]) -> Leaf:
    """Majority-class leaf; a tie predicts class 0 (death)."""
    return Leaf(class_counts=counts, predicted=0 if counts[0] >= counts[1] else 1)


def _gini(c0, n0, m_left, m_right, n) -> np.ndarray:
    """Weighted Gini of cuts that put ``c0`` of a node's ``n0`` class-0 rows left.

    The sides hold ``m_left`` and ``m_right`` rows (neither 0) of the
    node's ``n``. ``m_left`` and ``m_right`` have one shape, and every
    argument broadcasts against ``c0``.
    """
    m = np.array((m_left, m_right))
    p = np.array((c0, n0 - c0)) / m
    gini = (1.0 - p**2 - (1.0 - p) ** 2) * m
    return (gini[0] + gini[1]) / n


class _Presort:
    """A complete feature matrix read once, and the trees of its row masks.

    ``masks`` (T x n) holds one row mask per tree. The first request
    (``tree``) grows every mask's tree together, to its ``max_depth``;
    later requests hand them out.
    """

    def __init__(self, view: DatasetView, features: list[str], y: np.ndarray, masks: np.ndarray):
        X = view.matrix(features)
        if X.shape[0] == 0:
            raise EmptyDataError("no rows to fit on")
        schemas = [view.schema_for(f) for f in features]
        categorical = np.array([s.is_categorical for s in schemas], dtype=bool)
        self.features = features
        self.XT = np.ascontiguousarray(X.T)  # (F x n); flat indices index XT.ravel()
        self.rows0 = y.astype(np.int64) == 0  # the class-0 flag of each row
        self.masks = masks
        self.continuous = np.flatnonzero(~categorical)
        self.categorical = np.flatnonzero(categorical)
        # row c: the rows sorted by continuous feature c, stably
        self.order = np.argsort(self.XT[self.continuous], axis=1, kind="stable")
        self.codes = self.XT[self.categorical].astype(np.intp)
        self.n_levels = max((s.n_levels for s in schemas if s.is_categorical), default=0)
        self._trees: list[TreeNode] | None = None

    def tree(self, i: int, max_depth: int) -> TreeNode:
        """The tree of row mask ``i``; the first request grows every mask's tree."""
        if self._trees is None:
            self._trees = _grow(self, max_depth)
        return self._trees[i]


def _grow(presort: _Presort, max_depth: int) -> list[TreeNode]:
    """The tree of every row mask of ``presort``, grown together one depth level at a time.

    The live nodes of a level (impure, at most ``max_depth`` deep) of all
    trees are segments of one pass. ``rows`` holds each node's rows,
    node after node: row 0 in any order, row 1 + c sorted by continuous
    feature c. A split partitions every row of ``rows`` stably, so no node
    sorts again, and only the children that are still live carry on.
    """
    XT, rows0, masks = presort.XT, presort.rows0, presort.masks
    n_features, n = XT.shape
    flat = XT.ravel()
    n_rows = masks.sum(axis=1)
    n0_rows = (masks & rows0).sum(axis=1)
    root_live = (n0_rows > 0) & (n0_rows < n_rows) & (n_features > 0)
    live = np.flatnonzero(root_live)
    sizes, n0 = n_rows[live], n0_rows[live]
    first = np.vstack((np.arange(n), presort.order))
    keep = masks[live][:, first].transpose(1, 0, 2)
    rows = np.broadcast_to(first[:, None, :], keep.shape)[keep].reshape(first.shape[0], -1)
    levels = []
    for depth in range(1, max_depth + 1):
        n_nodes = sizes.size
        if not n_nodes:
            break
        starts = np.concatenate(([0], sizes.cumsum()[:-1]))
        seg = np.repeat(np.arange(n_nodes), sizes)
        best = np.empty((n_features, n_nodes))
        thresholds = np.empty((n_features, n_nodes))
        if presort.continuous.size:
            best[presort.continuous], thresholds[presort.continuous] = _score_continuous(
                presort, flat, rows[1:], starts, seg, sizes, n0
            )
        if presort.categorical.size:
            best[presort.categorical], thresholds[presort.categorical] = _score_categorical(
                presort, rows[0], seg, sizes, n0
            )
        j = best.argmin(axis=0)
        node = np.arange(n_nodes)
        found, thr = best[j, node] < np.inf, thresholds[j, node]
        # the counts come from routing, not from the cut's position: a
        # midpoint that rounds onto the next value sends that value left too
        goes_left = flat.take(j[seg] * n + rows) <= thr[seg]
        n_left = np.add.reduceat(goes_left[0], starts, dtype=np.intp)
        n0_left = np.add.reduceat(goes_left[0] & rows0[rows[0]], starts, dtype=np.intp)
        child_sizes = np.array((n_left, sizes - n_left)).T.ravel()
        child_n0 = np.array((n0_left, n0 - n0_left)).T.ravel()
        child_live = (
            np.repeat(found & (depth < max_depth), 2) & (child_n0 > 0) & (child_n0 < child_sizes)
        )
        levels.append((found, j, thr, n0, sizes, child_n0, child_sizes, child_live))
        if not child_live.any():
            break
        order = np.argsort(2 * seg + ~goes_left, axis=1, kind="stable")
        order = order[:, np.repeat(child_live, child_sizes)]
        rows = rows.take(order + np.arange(0, rows.size, rows.shape[1])[:, None])
        sizes, n0 = child_sizes[child_live], child_n0[child_live]
    return _assemble(presort.features, levels, n0_rows, n_rows, root_live)


def _score_continuous(presort, flat, rows, starts, seg, sizes, n0):
    """(weighted Gini, threshold) of each continuous feature's best cut in each node.

    Row c of ``rows`` holds each node's rows sorted by continuous feature
    c. Cut i puts a node's sorted rows up to i left; a node's last
    position and positions between equal values score inf. The first
    minimum of a node is its smallest threshold.
    """
    n_cont, size = rows.shape
    sv = flat.take(rows + (presort.continuous * presort.XT.shape[1])[:, None])
    ones = np.zeros((n_cont, size + 1), dtype=np.intp)
    np.cumsum(presort.rows0.take(rows), axis=1, out=ones[:, 1:])
    start = starts[seg]
    c0 = ones[:, 1:] - ones[:, start]
    n = sizes[seg]
    m_left = (np.arange(1, size + 1) - start)[None]
    last = m_left == n
    # a node's last position has no right side; it scores inf below
    weighted = _gini(c0, n0[seg], m_left, n - m_left + last, n)
    tie = np.ones((n_cont, size), dtype=bool)
    tie[:, :-1] = sv[:, 1:] <= sv[:, :-1]
    weighted[tie | last] = np.inf
    low = np.minimum.reduceat(weighted, starts, axis=1)
    at = np.where(weighted == low[:, seg], np.arange(size), size)
    cut = np.minimum.reduceat(at, starts, axis=1)
    col = np.arange(n_cont)[:, None]
    return low, 0.5 * (sv[col, cut] + sv[col, cut + 1])


def _score_categorical(presort, rows, seg, sizes, n0):
    """(weighted Gini, threshold) of each categorical feature's best cut in each node.

    One ``bincount`` over the nodes' ``rows`` counts each class per
    (feature, node, level); the cuts lie between consecutive levels
    present in the node, and the first minimum is the smallest threshold.
    """
    codes, n_levels = presort.codes, presort.n_levels
    n_cat, n_nodes = codes.shape[0], sizes.size
    cell = (np.arange(n_cat)[:, None] * n_nodes + seg) * n_levels + codes[:, rows]
    counts = np.bincount(
        (2 * cell + ~presort.rows0[rows]).ravel(), minlength=2 * n_cat * n_nodes * n_levels
    ).reshape(n_cat, n_nodes, n_levels, 2)
    seen = counts.any(axis=3)
    cum = counts.cumsum(axis=2)
    c0, m_left, n = cum[..., 0], cum.sum(axis=3), sizes[:, None]
    valid = seen & (m_left < n)
    weighted = _gini(c0, n0[:, None], np.where(valid, m_left, 1), np.where(valid, n - m_left, 1), n)
    weighted[~valid] = np.inf
    level = weighted.argmin(axis=2)
    low = weighted.min(axis=2)
    above = (seen & (np.arange(n_levels) > level[..., None])).argmax(axis=2)
    return low, 0.5 * (level + above)


def _assemble(features, levels, n0_rows, n_rows, root_live) -> list[TreeNode]:
    """The trees of ``_grow``'s levels, built from the deepest level up.

    A node without a cut has two child slots too; their leaves are dropped.
    """

    def slots(n0, sizes, live, grown):
        grown = iter(grown)
        return [
            next(grown) if g else _leaf((c0, m - c0))
            for g, c0, m in zip(live.tolist(), n0.tolist(), sizes.tolist())
        ]

    below: list[TreeNode] = []
    for found, j, thr, n0, sizes, child_n0, child_sizes, child_live in reversed(levels):
        child = slots(child_n0, child_sizes, child_live, below)
        below = [
            Split(features[f], t, child[2 * s], child[2 * s + 1], (c0, m - c0))
            if split
            else _leaf((c0, m - c0))
            for s, (split, f, t, c0, m) in enumerate(
                zip(found.tolist(), j.tolist(), thr.tolist(), n0.tolist(), sizes.tolist())
            )
        ]
    return slots(n0_rows, n_rows, root_live, below)


def fit_tree(
    view: DatasetView,
    features: Sequence[str],
    outcome: str,
    max_depth: int,
    *,
    presorted: tuple[_Presort, int] | None = None,
) -> TreeNode:
    """Greedy Gini partitioning, depth counted in splits along a path.

    Every feature splits at a midpoint of consecutive distinct values; a
    binary feature's only cut lies between its two codes. Ties in
    impurity prefer the earliest feature in declared order, then the
    smallest threshold. Value <= threshold routes left. A node that is
    pure, at ``max_depth`` or without a cut is a leaf.

    The tree grows level by level through the module's one grower, which
    scores continuous features from their presorted values and
    categorical ones from class counts per level (see the module
    docstring). ``kfold_cv`` passes ``presorted=(presort, f)``: the view's
    presort, which holds one row mask per fold, and the index of this
    fold's mask (``view`` is then those rows, in the same order). The
    first such call grows the trees of every mask together; each call
    returns its own, the tree a fresh fit of ``view`` grows.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if presorted is None:
        y = view.matrix([outcome])[:, 0]
        presorted = _Presort(view, list(features), y, np.ones((1, y.size), dtype=bool)), 0
    presort, i = presorted
    return presort.tree(i, max_depth)


def predict_matrix(
    tree: TreeNode, X: np.ndarray, feature_index: Mapping[str, int]
) -> np.ndarray:
    """Predictions for a coded feature matrix, each row walked down the tree.

    Value <= threshold routes left.
    """
    preds = []
    for row in X.tolist():
        node = tree
        while isinstance(node, Split):
            node = node.left if row[feature_index[node.feature]] <= node.threshold else node.right
        preds.append(node.predicted)
    return np.array(preds, dtype=np.int64)


def evaluate(tree: TreeNode, view: DatasetView, outcome: str) -> Metrics:
    """Confusion metrics with class 0 (death) as the positive class.

    Every other outcome code is the negative class, as in ``fit_tree``.
    """
    feats = sorted(tree_features(tree))
    X = view.matrix(feats)
    y = view.matrix([outcome])[:, 0]
    return _score(predict_matrix(tree, X, {f: j for j, f in enumerate(feats)}), y)


def _score(preds: np.ndarray, y: np.ndarray) -> Metrics:
    """Confusion metrics of predictions against outcome codes; code 0 is positive."""
    tp, fp, fn, tn = np.bincount(2 * preds + (y != 0), minlength=4).tolist()
    return Metrics.from_counts(tp, fn, tn, fp)


def iter_nodes(tree: TreeNode) -> Iterable[tuple[TreeNode, int]]:
    """Yield (node, depth) pairs; the root split sits at depth 1."""
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if isinstance(node, Split):
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))


def tree_features(tree: TreeNode) -> set[str]:
    return {node.feature for node, _ in iter_nodes(tree) if isinstance(node, Split)}


def _stratified_folds(
    y: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Fold labels: per-class round-robin with extras offset across classes.

    The classes are those ``fit_tree`` trains: code 0 against every other code.
    """
    fold = np.empty(y.shape[0], dtype=np.int64)
    offset = 0
    for in_class in (y == 0, y != 0):
        members = np.nonzero(in_class)[0]
        if members.size == 0:
            continue
        members = members[rng.permutation(members.size)]
        fold[members] = (np.arange(members.size) + offset) % k
        offset += members.size % k
    return fold


def kfold_cv(
    view: DatasetView,
    features: Sequence[str],
    outcome: str,
    k: int,
    max_depth: int,
    seed: int,
) -> Metrics:
    """Stratified k-fold cross-validation; rates are fold averages.

    The view's outcome codes are read once, and its feature matrix is
    checked and presorted once, with one training-row mask per fold. Each
    fold still calls ``fit_tree`` with its training view: the first call
    grows all k fold trees together, level by level, and each returns its
    fold's tree (see ``fit_tree``). Each fold's tree is then scored on the
    test rows of the same matrix.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if view.n_rows < k:
        raise TooFewRowsError(f"{view.n_rows} rows cannot fill {k} folds")
    features = list(features)
    y = view.matrix([outcome])[:, 0]
    rng = np.random.default_rng(seed)
    fold = _stratified_folds(y.astype(np.int64), k, rng)
    tests = [fold == f for f in range(k)]
    for f, test in enumerate(tests):
        if not test.any() or test.all():
            raise TooFewRowsError(f"fold {f} is empty with k={k}, n={view.n_rows}")
    presort = _Presort(view, features, y, ~np.array(tests))
    X = presort.XT.T
    index = {f: j for j, f in enumerate(features)}

    sums = np.zeros(4)
    pooled = np.zeros(4, dtype=np.int64)
    for f, test in enumerate(tests):
        train_view = DatasetView(view.source, view.columns, view.rows[~test])
        tree = fit_tree(train_view, features, outcome, max_depth, presorted=(presort, f))
        m = _score(predict_matrix(tree, X[test], index), y[test])
        sums += (m.sensitivity, m.specificity, m.f1, m.accuracy)
        pooled += (m.tp, m.fn, m.tn, m.fp)
    sens, spec, f1, acc = (sums / k).tolist()
    return Metrics(sens, spec, f1, acc, *(int(v) for v in pooled))


@dataclass(frozen=True)
class PermutationTrial:
    features: tuple[str, ...]
    n_rows: int
    metrics: Metrics


@dataclass(frozen=True)
class PermutationResult:
    trials: tuple[PermutationTrial, ...]
    target_n: int

    def to_json_dict(self) -> dict:
        return {"target_n": self.target_n, "n_trials": len(self.trials), "trials": self.trials}

    def misclassification(self) -> np.ndarray:
        return np.array([1.0 - t.metrics.accuracy for t in self.trials])

    def mean_metric(self, name: str) -> float:
        return float(np.mean([getattr(t.metrics, name) for t in self.trials]))

    def histogram(self) -> list[tuple[float, float, int]]:
        """(lo, hi, count) rows over misclassification rates, HISTOGRAM_BIN_WIDTH wide."""
        mis = self.misclassification()
        top = float(mis.max()) if mis.size else 0.0
        n_bins = max(1, int(math.ceil(round(top / HISTOGRAM_BIN_WIDTH, 9))))
        if n_bins * HISTOGRAM_BIN_WIDTH < top:  # top sits a rounding error above an edge
            n_bins += 1
        edges = np.arange(n_bins + 1) * HISTOGRAM_BIN_WIDTH
        counts, _ = np.histogram(mis, bins=edges)
        return [
            (float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(n_bins)
        ]


def permutation_baseline(
    dataset: Dataset,
    pool: Sequence[str],
    outcome: str,
    n_features: int,
    n_trials: int,
    k: int,
    max_depth: int,
    target_n: int,
    seed: int,
) -> PermutationResult:
    """Distribution of CV metrics over random feature draws with matched row counts.

    Each trial draws ``n_features`` distinct columns from the pool, which
    must not contain ``outcome``, and redraws (up to RETRY_BUDGET times)
    until the complete-case count is within DRAW_TOLERANCE of
    ``target_n``. Per-trial seeds derive from the master seed, so trials
    are reproducible independently.
    """
    pool = sorted(set(pool), key=dataset.column_index)
    if len(pool) < n_features:
        raise ExhaustedDrawsError(f"pool of {len(pool)} cannot supply {n_features} features")
    trials = []
    for t in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        chosen = None
        for _attempt in range(RETRY_BUDGET):
            picks = rng.choice(len(pool), size=n_features, replace=False)
            feats = [pool[i] for i in sorted(picks)]
            v = complete_cases(dataset, [*feats, outcome])
            if abs(v.n_rows - target_n) <= DRAW_TOLERANCE * target_n:
                chosen = (feats, v)
                break
        if chosen is None:
            raise ExhaustedDrawsError(
                f"trial {t}: no {n_features}-feature draw matched "
                f"{target_n} rows within {DRAW_TOLERANCE:.0%} in {RETRY_BUDGET} attempts"
            )
        feats, v = chosen
        cv_seed = int(rng.integers(0, 2**31 - 1))
        metrics = kfold_cv(v, feats, outcome, k, max_depth, cv_seed)
        trials.append(PermutationTrial(tuple(feats), v.n_rows, metrics))
    return PermutationResult(tuple(trials), target_n)


def tree_to_dot(tree: TreeNode, schema_for: Callable[[str], ColumnSchema]) -> str:
    """Render nodes as subject count / question / class counts, filled by prevalence.

    A split on a binary column asks for the level labels that route left;
    any other split asks ``FEAT <= threshold?``.
    """

    def question(node: Split) -> str:
        sch = schema_for(node.feature)
        if sch.kind == KIND_BINARY:
            labels = ",".join(lab for k, lab in enumerate(sch.levels) if k <= node.threshold)
            return f"{node.feature} = {labels}?"
        return f"{node.feature} <= {node.threshold:.4g}?"

    def fill(counts: tuple[int, int]) -> str:
        if counts[0] > counts[1]:
            return "lightcoral"
        if counts[1] > counts[0]:
            return "palegreen"
        return "gray80"

    lines = ["digraph tree {", '  node [shape=box, style=filled, fontname="Helvetica"];']
    counter = {"next": 0}

    def emit(node: TreeNode) -> int:
        nid = counter["next"]
        counter["next"] += 1
        if isinstance(node, Leaf):
            total = sum(node.class_counts)
            label = (
                f"{total} subjects\\n{CLASS_NAMES[node.predicted]}"
                f"\\n{node.class_counts[0]}/{node.class_counts[1]}"
            )
            lines.append(
                f'  n{nid} [label="{label}", fillcolor={fill(node.class_counts)}, penwidth=2];'
            )
            return nid
        total = sum(node.class_counts)
        label = (
            f"{total} subjects\\n{question(node)}"
            f"\\n{node.class_counts[0]}/{node.class_counts[1]}"
        )
        lines.append(f'  n{nid} [label="{label}", fillcolor={fill(node.class_counts)}];')
        left = emit(node.left)
        right = emit(node.right)
        lines.append(f'  n{nid} -> n{left} [label="yes"];')
        lines.append(f'  n{nid} -> n{right} [label="no"];')
        return nid

    emit(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"
