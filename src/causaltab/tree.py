"""Depth-limited binary classification trees with CV and a permutation baseline.

CART-style greedy partitioning on Gini impurity. Class 0 (the first
declared outcome level, death in the clinical encoding) is the positive
class throughout; leaf ties predict it since missing a death
is the costlier triage error.

``fit_tree`` presorts as CART does (Breiman et al. 1984) and keeps each
feature's sorted rows contiguous, as SLIQ's attribute lists do (Mehta,
Agrawal & Rissanen 1996): one stable argsort per feature per tree gives a
features-major matrix, one row per feature, of flat indices into
``X.T``. A node gathers its values and class flags with one ``take``
each and scores all cuts of all its features, left and right sides
stacked, in one vectorized pass, with the same floating-point Gini
expression per cut and the same tie order (earliest feature, then
smallest threshold) as a per-feature search over freshly sorted rows
would, so the trees are identical. A split passes each child its part of
the orders by one boolean mask.

``kfold_cv`` builds that presort once per cross-validation, from the
whole view. Each fold's tree starts from it masked to the fold's training
rows, again by one boolean mask: a stable sort restricted to a subset of
the rows is the stable sort of that subset, so each fold grows the tree a
fresh fit of its rows would. Each fold is scored on the test rows of the
same feature matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .data import KIND_BINARY, ColumnSchema, Dataset, DatasetView, complete_cases
from .errors import EmptyDataError, ExhaustedDrawsError, IncompleteViewError, TooFewRowsError

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


def _best_split(
    values: np.ndarray, is0: np.ndarray, order: np.ndarray
) -> tuple[int, float, int, int] | None:
    """(feature, threshold, rows left, class-0 rows left) of a node's best split.

    ``order`` is features-major: row f holds the node's rows sorted by
    feature f, as flat indices into ``values`` (``X.T`` raveled) and
    ``is0``. Cut i puts sorted rows 0..i left, and every cut of every
    feature is scored in one pass over both sides; positions between
    equal values score inf. The first minimum in features-major order is
    the earliest feature's smallest threshold. None when no feature has a
    cut.
    """
    n_features, n = order.shape
    if n_features == 0:
        return None
    sv = values.take(order)
    ones = is0.take(order).cumsum(axis=1)
    sizes = np.arange(1, n)
    m = np.array((sizes, sizes[::-1]))[:, None]
    c0 = ones[:, :-1]
    p = np.array((c0, ones[:, -1:] - c0)) / m
    gini = (1.0 - p**2 - (1.0 - p) ** 2) * m
    weighted = (gini[0] + gini[1]) / n
    weighted[sv[:, 1:] <= sv[:, :-1]] = np.inf
    j, cut = divmod(int(weighted.argmin()), n - 1)
    if weighted[j, cut] == np.inf:
        return None
    row = sv[j]
    thr = float(0.5 * (row[cut] + row[cut + 1]))
    # cut + 1 rows, unless the midpoint rounds onto a neighbouring value
    rows_left = int(row.searchsorted(thr, side="right"))
    return j, thr, rows_left, int(ones[j, rows_left - 1]) if rows_left else 0


class _Presort(NamedTuple):
    """A complete feature matrix sorted once, features-major, for the trees grown on it."""

    XT: np.ndarray  # (F x n) and contiguous; flat indices index XT.ravel()
    row_of: np.ndarray  # the row of each flat index
    rows0: np.ndarray  # the class-0 flag of each row
    is0: np.ndarray  # the class-0 flag of each flat index
    order: np.ndarray  # (F x n): row f holds the rows sorted by feature f, as flat indices


def _presort(view: DatasetView, features: list[str], outcome: str) -> _Presort:
    """Check the view's feature matrix and sort every feature of it once, stably."""
    X = view.matrix(features)
    y = view.coded(outcome)
    if X.shape[0] == 0:
        raise EmptyDataError("no rows to fit on")
    if np.isnan(X).any() or np.isnan(y).any():
        raise IncompleteViewError("tree fitting requires complete cases")
    n, n_features = X.shape
    XT = np.ascontiguousarray(X.T)
    row_of = np.tile(np.arange(n), n_features)
    rows0 = y.astype(np.int64) == 0
    order = np.argsort(XT, axis=1, kind="stable") + np.arange(0, XT.size, n)[:, None]
    return _Presort(XT, row_of, rows0, rows0[row_of], order)


def fit_tree(
    view: DatasetView,
    features: Sequence[str],
    outcome: str,
    max_depth: int,
    *,
    presorted: tuple[_Presort, np.ndarray] | None = None,
) -> TreeNode:
    """Greedy Gini partitioning, depth counted in splits along a path.

    Every feature splits at a midpoint of consecutive distinct values; a
    binary feature's only cut lies between its two codes. Ties in
    impurity prefer the earliest feature in declared order, then the
    smallest threshold. Value <= threshold routes left.

    The rows are sorted by every feature once, stably, into one
    features-major matrix of flat indices into ``X.T``. ``kfold_cv`` sorts
    its view once and passes that presort with the fold's training rows
    as ``presorted`` (a row mask of the presorted view; ``view`` is then
    those rows, in the same order). The root's orders are then the
    presort masked to those rows: a stable sort restricted to a subset is
    the stable sort of the subset, so the tree is the one a fresh fit of
    ``view`` grows.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    features = list(features)
    if presorted is None:
        return _grow(_presort(view, features, outcome), None, features, max_depth)
    return _grow(*presorted, features, max_depth)


def _grow(
    presort: _Presort, rows: np.ndarray | None, features: list[str], max_depth: int
) -> TreeNode:
    """The tree of the presorted rows that ``rows`` keeps (all of them when None).

    A split hands each child that child's part of the orders (a stable
    partition, so no node sorts again) and its class counts. Nodes are
    grown from a stack, keyed by heap position (the children of k at
    2k + 1 and 2k + 2), and built leaves first, so a fit leaves no
    reference cycle behind.
    """
    XT, row_of, rows0, is0, root = presort
    values = XT.ravel()
    n_features = XT.shape[0]
    if rows is None:
        keep, n, n0 = None, rows0.size, int(np.count_nonzero(rows0))
    else:
        keep = rows.take(row_of.take(root))
        n, n0 = int(np.count_nonzero(rows)), int(np.count_nonzero(rows0 & rows))

    searched = {}  # heap position -> (class counts, _best_split's result)
    stack = [(0, root, keep, (n0, n - n0), 1)]
    while stack:
        at, order, keep, counts, depth = stack.pop()
        found = None
        if depth <= max_depth and counts[0] and counts[1]:
            if keep is not None:
                order = order.compress(keep.ravel()).reshape(n_features, sum(counts))
            found = _best_split(values, is0, order)
        searched[at] = counts, found
        if found is None:
            continue
        j, thr, rows_left, c0_left = found
        left = (c0_left, rows_left - c0_left)
        right = (counts[0] - left[0], counts[1] - left[1])
        if depth < max_depth and (all(left) or all(right)):
            goes_left = (XT[j] <= thr).take(row_of.take(order))
            stack.append((2 * at + 1, order, goes_left, left, depth + 1))
            stack.append((2 * at + 2, order, ~goes_left, right, depth + 1))
        else:  # neither child is searched, so neither needs its rows
            searched[2 * at + 1] = left, None
            searched[2 * at + 2] = right, None
    nodes: dict[int, TreeNode] = {}
    for at in sorted(searched, reverse=True):
        counts, found = searched[at]
        if found is None:
            nodes[at] = _leaf(counts)
        else:
            left, right = nodes.pop(2 * at + 1), nodes.pop(2 * at + 2)
            nodes[at] = Split(features[found[0]], found[1], left, right, counts)
    return nodes[0]


def predict_matrix(
    tree: TreeNode, X: np.ndarray, feature_index: Mapping[str, int]
) -> np.ndarray:
    """Vectorized predictions for a coded feature matrix; value <= threshold routes left."""
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            out[idx] = node.predicted
            continue
        mask = X[idx, feature_index[node.feature]] <= node.threshold
        stack += [(node.left, idx[mask]), (node.right, idx[~mask])]
    return out


def evaluate(tree: TreeNode, view: DatasetView, outcome: str) -> Metrics:
    """Confusion metrics with class 0 (death) as the positive class.

    Every other outcome code is the negative class, as in ``fit_tree``.
    """
    feats = sorted(tree_features(tree))
    X = view.matrix(feats) if feats else np.empty((view.n_rows, 0))
    y = view.coded(outcome)
    if (X.size and np.isnan(X).any()) or np.isnan(y).any():
        raise IncompleteViewError("evaluation requires complete cases")
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

    The view's feature matrix is checked and presorted once. Each fold's
    tree grows from that presort masked to the fold's training rows (see
    ``fit_tree``), and is scored on the test rows of the same matrix.
    """
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
    tests = [fold == f for f in range(k)]
    for f, test in enumerate(tests):
        if not test.any() or test.all():
            raise TooFewRowsError(f"fold {f} is empty with k={k}, n={view.n_rows}")
    presort = _presort(view, features, outcome)
    X = presort.XT.T
    index = {f: j for j, f in enumerate(features)}

    sums = np.zeros(4)
    pooled = np.zeros(4, dtype=np.int64)
    for test in tests:
        train = ~test
        train_view = DatasetView(view.source, view.columns, view.rows[train])
        tree = fit_tree(train_view, features, outcome, max_depth, presorted=(presort, train))
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
