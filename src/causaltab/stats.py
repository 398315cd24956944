"""Statistical primitives: tail functions, CI tests, exact tests, OLS.

All operations are pure and deterministic; repeated calls on identical
inputs are bit-identical. Each CI test has one kernel, over a batch of
queries (x, y, S) that may mix pairs and set sizes, so that a search
round's queries are answered together; a single test is a batch of one.
The Fisher-z kernel inverts the submatrices of each set size as one
stack. The G^2 kernel counts every cell of every table as the popcount of
an AND of the view's packed per-level row bitsets, in slices of at most
``_SLICE_BYTES``, and scores the tables in one vectorized pass per slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, groupby
from typing import NoReturn, Sequence

import numpy as np
from scipy.special import gammaincc, stdtr

from .data import DatasetView
from .errors import (
    DegenerateGroupError,
    DomainError,
    IncompleteViewError,
    NotCategoricalError,
    RankDeficientError,
    SampleTooSmallError,
    SingularCorrelationError,
    ZeroBaseError,
    ZeroVarianceError,
)

#: The most bytes of AND-ed row bitsets, one per table cell, that the G^2
#: kernel builds at once. A batch's tables are counted and scored in slices
#: of this size, so a search round of thousands of tables stays small in
#: memory; a larger slice pays numpy's per-call cost over more cells.
_SLICE_BYTES = 1 << 19

__all__ = [
    "TestResult",
    "ContingencyTable2x2",
    "FoldIncrease",
    "chisq_sf",
    "fisher_z_from_correlation",
    "fisher_z_batch",
    "g_squared_test",
    "g_squared_batch",
    "fisher_exact",
    "point_biserial",
    "ols",
    "fold_increase",
]


@dataclass(frozen=True)
class TestResult:
    """Outcome of a significance test."""

    statistic: float
    p_value: float
    dof: float
    effect: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.p_value <= 1.0):
            raise ValueError(f"p_value {self.p_value} outside [0, 1]")
        if self.dof < 0:
            raise ValueError(f"dof {self.dof} is negative")


@dataclass(frozen=True)
class ContingencyTable2x2:
    """Counts [[a, b], [c, d]]: rows = feature present/absent, cols = death/recovery."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if v < 0 or v != int(v):
                raise ValueError(f"counts must be nonnegative integers, got {v}")
        if self.total == 0:
            raise ValueError("contingency table is empty")

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d


def chisq_sf(x: float | np.ndarray, dof: float | np.ndarray) -> float | np.ndarray:
    """Chi-square survival function P(X > x) with ``dof`` degrees of freedom.

    ``x`` and ``dof`` may be arrays, which broadcast: ``gammaincc`` is one
    ufunc, so each entry equals the scalar call's.
    """
    x = np.asarray(x, dtype=float)
    # one ufunc reduction rather than (x < 0).any(): a G^2 batch checks its
    # statistics here, and on small batches numpy's per-call cost dominates
    if np.minimum.reduce(x, axis=None, initial=0.0) < 0:
        raise DomainError(f"chisq_sf: x must be >= 0, got {np.min(x)}")
    if np.minimum.reduce(dof, axis=None) <= 0:
        raise DomainError(f"chisq_sf: dof must be > 0, got {np.min(dof)}")
    sf = gammaincc(dof / 2.0, x / 2.0)
    return float(sf) if sf.ndim == 0 else sf


def _partial_correlations(
    corr: np.ndarray, queries: Sequence[tuple[int, int, Sequence[int]]]
) -> list[float | None]:
    """Partial correlation of i and j given S for each (i, j, S) of ``queries``, all of one size.

    The correlation submatrices of (i, j, S) are inverted by one
    ``np.linalg.inv`` over the stack, which raises LinAlgError when any of
    them is singular. An entry is None where the inverse gives no
    correlation: inv00 * inv11 is not finite or not positive.
    """
    if not queries[0][2]:
        return [float(corr[i, j]) for i, j, _ in queries]
    idx = np.array([[i, j, *given] for i, j, given in queries])
    inv = np.linalg.inv(corr[idx[:, :, None], idx[:, None, :]])
    denoms = (inv[:, 0, 0] * inv[:, 1, 1]).tolist()
    return [
        -off / math.sqrt(denom) if math.isfinite(denom) and denom > 0 else None
        for off, denom in zip(inv[:, 0, 1].tolist(), denoms)
    ]


def fisher_z_from_correlation(
    corr: np.ndarray, n: int, i: int, j: int, given: Sequence[int]
) -> TestResult:
    """Fisher-z partial-correlation test from a precomputed correlation matrix."""
    k = len(given)
    if n - k - 3 <= 0:
        raise SampleTooSmallError(f"need n > |S| + 3; n={n}, |S|={k}")
    try:
        (rho,) = _partial_correlations(corr, [(i, j, given)])
    except np.linalg.LinAlgError:
        raise SingularCorrelationError(
            f"correlation submatrix for ({i}, {j} | {tuple(given)}) is singular"
        ) from None
    if rho is None:
        raise SingularCorrelationError(
            f"correlation submatrix for ({i}, {j} | {tuple(given)}) is ill-conditioned"
        )
    stat, p = _fisher_z(rho, n - k - 3)
    return TestResult(statistic=stat, p_value=p, dof=float(n - k - 3), effect=rho)


def _fisher_z(rho: float, dof: int) -> tuple[float, float]:
    """Fisher-z statistic of a partial correlation on ``dof`` = n - |S| - 3, and its p-value.

    Scalar ``math`` calls throughout: numpy's vectorized arctanh and erfc
    differ from them in the last bits.
    """
    clamped = min(max(rho, -1.0 + 1e-15), 1.0 - 1e-15)
    stat = math.sqrt(dof) * math.atanh(clamped)
    # 2*(1 - Phi(|stat|)) evaluated as erfc for precision in the far tail
    return stat, min(math.erfc(abs(stat) / math.sqrt(2.0)), 1.0)


def fisher_z_batch(
    corr: np.ndarray, n: int, queries: Sequence[tuple[int, int, Sequence[int]]]
) -> list[float | None]:
    """P-values of ``fisher_z_from_correlation(corr, n, i, j, S)`` for each (i, j, S) of ``queries``.

    The queries may mix pairs and set sizes: the submatrices of each set
    size are inverted as one stack. An entry is None where the one-query
    test would raise: too few rows, or a singular or ill-conditioned
    submatrix. A singular submatrix voids only its own query: its stack is
    then inverted one submatrix at a time.
    """
    out: list[float | None] = [None] * len(queries)
    by_size: dict[int, list[int]] = {}
    for q, (_, _, given) in enumerate(queries):
        by_size.setdefault(len(given), []).append(q)
    for size, positions in by_size.items():
        dof = n - size - 3
        if dof <= 0:
            continue
        group = [queries[q] for q in positions]
        try:
            rhos = _partial_correlations(corr, group)
        except np.linalg.LinAlgError:
            rhos = []
            for query in group:
                try:
                    rhos += _partial_correlations(corr, [query])
                except np.linalg.LinAlgError:
                    rhos.append(None)
        for q, rho in zip(positions, rhos):
            if rho is not None:
                out[q] = _fisher_z(rho, dof)[1]
    return out


def _raise_unfit_for_g2(names: Sequence[str], view: DatasetView) -> NoReturn:
    """Raise for the first of ``names`` that is no complete categorical column of the view.

    Columns are checked for kind first, then for view membership, then for
    missing cells. Called when some name has no bitsets in
    ``view.categorical_bitsets``, so one of the checks fails: a categorical
    column of the view that the bitsets leave out has a missing cell.
    """
    for name in names:
        sch = view.schema_for(name)
        if not sch.is_categorical:
            raise NotCategoricalError(f"column {name!r} is {sch.kind}, not categorical")
    for name in names:
        view.coded(name)  # UnknownColumnError outside the view
    _, columns = view.categorical_bitsets
    name = next(name for name in names if name not in columns)
    raise IncompleteViewError(f"column {name!r} has missing cells in this view")


def g_squared_test(
    x: str, y: str, given: Sequence[str], view: DatasetView
) -> TestResult:
    """Likelihood-ratio (G^2) independence test for categorical columns.

    G^2 = 2 * sum O*ln(O/E) over the x-by-y cells within each configuration
    of ``given``; zero-observed cells contribute 0. Degrees of freedom are
    (|x|-1)(|y|-1)*prod(|s|): empty strata are skipped without reducing dof.

    A batch of one for the G^2 kernel. A column that is no complete
    categorical column of the view raises NotCategoricalError,
    UnknownColumnError or IncompleteViewError.
    """
    (scored,) = _g_squared_scores([(x, y, given)], view)
    if scored is None:
        _raise_unfit_for_g2([x, y, *given], view)
    return TestResult(*scored)


def g_squared_batch(
    queries: Sequence[tuple[str, str, Sequence[str]]], view: DatasetView
) -> list[float | None]:
    """P-values of ``g_squared_test(x, y, S, view)`` for each (x, y, S) of ``queries``.

    The queries may mix pairs, table shapes and set sizes. An entry is
    None where that test raises.
    """
    return [None if res is None else res[1] for res in _g_squared_scores(queries, view)]


def _g_squared_scores(
    queries: Sequence[tuple[str, str, Sequence[str]]], view: DatasetView
) -> list[tuple[float, float, float] | None]:
    """The G^2 kernel: (statistic, p-value, dof) of each (x, y, S) of ``queries``.

    Tables are counted from ``view.categorical_bitsets``, packed once per
    view, and an entry is None for a query naming a column left out of
    them. A query's table has one cell per (stratum, x level, y level),
    the strata being the level combinations of S, in mixed-radix order
    with the first column of S as the most significant digit. A cell's
    count is the popcount of the AND of its levels' row bitsets. The
    queries are sorted by cell count and cut into slices of at most
    ``_SLICE_BYTES`` of AND-ed cell words; each slice is counted and
    scored in one vectorized pass, and each query's terms are summed as
    one contiguous row in (stratum, x, y) order.
    """
    words, columns = view.categorical_bitsets
    out: list[tuple[float, float, float] | None] = [None] * len(queries)
    jobs, sizes, flat = [], [], []
    for q, (x, y, given) in enumerate(queries):
        try:
            digits = [columns[name] for name in (*given, x, y)]
        except KeyError:
            continue
        jobs.append(q)
        sizes.append(len(digits))
        flat += digits
    if not jobs:
        return out
    # digits[q, t] = (bitset row of level 0, level count) of query q's digit
    # t. A query with a smaller S is padded in front with the all-rows
    # bitset as a digit of one level, which leaves its cells and their
    # order alone
    sizes = np.array(sizes)
    width = int(sizes.max())
    digits = np.zeros((len(jobs), width, 2), dtype=np.intp)
    digits[:, :, 1] = 1
    slot = np.arange(len(flat)) + (width * np.arange(len(jobs)) + width - sizes.cumsum()).repeat(sizes)
    digits.reshape(-1, 2)[slot] = np.fromiter(
        chain.from_iterable(flat), dtype=np.intp, count=2 * len(flat)
    ).reshape(-1, 2)
    cells = digits[:, :, 1].prod(axis=1)
    by_cells = np.argsort(cells, kind="stable")
    digits, cells = digits[by_cells], cells[by_cells]
    jobs = [jobs[i] for i in by_cells.tolist()]
    ends = cells.cumsum()
    per_slice = max(1, _SLICE_BYTES // max(1, words.itemsize * words.shape[1]))
    start = 0
    while start < len(jobs):
        limit = (ends[start - 1] if start else 0) + per_slice
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        scored = _score_tables(words, digits[start:stop], cells[start:stop])
        for q, entry in zip(jobs[start:stop], scored):
            out[q] = entry
        start = stop
    return out


def _score_tables(
    words: np.ndarray, digits: np.ndarray, cells: np.ndarray
) -> list[tuple[float, float, float]]:
    """(statistic, p-value, dof) of each table of a slice, its tables sorted by cell count.

    ``digits[q, t]`` is (bitset row of level 0, level count) of table q's
    digit t; the last two digits are x and y.
    """
    # the prefixes of digits 0..t of every table, one per combination of
    # their levels in mixed-radix order, each holding the AND of its
    # levels' rows; a prefix's children are consecutive, so the last
    # digit's prefixes are the cells in (stratum, x, y) order
    owner = np.arange(len(cells))
    parents = []
    anded = None
    for t in range(digits.shape[1]):
        k = digits[owner, t, 1]
        parent = np.arange(owner.size).repeat(k)
        level = np.arange(parent.size) - (k.cumsum() - k).repeat(k)
        grown = words[digits[owner, t, 0].repeat(k) + level]
        if anded is not None:
            grown &= anded[parent]
        owner, anded = owner[parent], grown
        parents.append(parent)
    # each cell's count, summed over its words by a matrix-vector product,
    # which is exact for integers and faster than a sum over the short axis
    table = np.bitwise_count(anded).astype(float) @ np.ones(words.shape[1])

    # margins by (table, stratum, x), (table, stratum, y) and (table,
    # stratum): the counts are integers, so each margin and r*c is exact
    # and each cell takes the same floating-point steps as with integer
    # margins
    x_at = parents[-1]
    s_at = parents[-2][x_at]
    y_at = s_at * int(digits[:, -1, 1].max()) + level  # level: each cell's y level
    row = np.bincount(x_at, weights=table)
    col = np.bincount(y_at, weights=table)
    total = np.bincount(s_at, weights=table)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = row[x_at] * col[y_at] / total[s_at]
        terms = np.where(table > 0, table * np.log(table / expected), 0.0)
    # terms holds no NaN (a non-empty cell has positive margins). Each
    # table's row is summed pairwise in (stratum, x, y) order, as np.nansum
    # would, by one call per run of equal cell counts
    g2 = np.empty(len(cells))
    start = first_cell = 0
    for n_cells, run in groupby(cells.tolist()):
        stop = start + len(list(run))
        last_cell = first_cell + (stop - start) * n_cells
        g2[start:stop] = terms[first_cell:last_cell].reshape(stop - start, n_cells).sum(axis=1)
        start, first_cell = stop, last_cell
    g2 = np.maximum(2.0 * g2, 0.0)
    kx, ky = digits[:, -2, 1], digits[:, -1, 1]
    dof = ((kx - 1) * (ky - 1) * (cells // (kx * ky))).astype(float)
    p = np.minimum(chisq_sf(g2, dof), 1.0)
    return list(zip(g2.tolist(), p.tolist(), dof.tolist()))


def _hypergeom_weights(r1: int, r2: int, c1: int) -> tuple[range, list[int]]:
    """Exact integer weights C(r1,k)*C(r2,c1-k) over the support of k."""
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    support = range(lo, hi + 1)
    return support, [math.comb(r1, k) * math.comb(r2, c1 - k) for k in support]


def fisher_exact(t: ContingencyTable2x2) -> TestResult:
    """Two-sided Fisher exact test via the point-probability criterion.

    Sums hypergeometric probabilities of all tables with the observed
    margins whose point probability does not exceed the observed one
    (within 1e-7 relative tolerance). Weights are exact integers and the
    comparison stays in integers, so ties are decided without
    floating-point noise and no weight is converted to a float.
    """
    r1, r2, c1 = t.a + t.b, t.c + t.d, t.a + t.c
    support, weights = _hypergeom_weights(r1, r2, c1)
    w_obs = weights[t.a - support.start]
    included = 0
    for w in weights:
        if w * 10_000_000 <= w_obs * 10_000_001:
            included += w
    total = math.comb(t.total, c1)
    p = included / total
    if t.b * t.c == 0:
        odds = math.inf if t.a * t.d > 0 else math.nan
    else:
        odds = (t.a * t.d) / (t.b * t.c)
    return TestResult(statistic=odds, p_value=min(p, 1.0), dof=0.0)


def point_biserial(g, x) -> TestResult:
    """Point-biserial correlation: Pearson r between a 0/1 group and a continuous column."""
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    if g.shape != x.shape or g.ndim != 1:
        raise ValueError("g and x must be 1-d arrays of equal length")
    n = g.shape[0]
    n1 = int((g == 1).sum())
    n0 = int((g == 0).sum())
    if n0 + n1 != n:
        raise DegenerateGroupError("group column must be coded 0/1 with no missing values")
    if n0 == 0 or n1 == 0:
        raise DegenerateGroupError(f"both groups must be non-empty (sizes {n0}, {n1})")
    if np.all(x == x[0]):
        raise ZeroVarianceError("continuous column is constant")
    gc = g - g.mean()
    xc = x - x.mean()
    r = float(gc @ xc / math.sqrt((gc @ gc) * (xc @ xc)))
    dof = n - 2
    if abs(r) >= 1.0:
        return TestResult(statistic=math.copysign(math.inf, r), p_value=0.0,
                          dof=float(dof), effect=r)
    tstat = r * math.sqrt(dof / (1.0 - r * r))
    p = 2.0 * float(stdtr(dof, -abs(tstat)))
    return TestResult(statistic=tstat, p_value=min(p, 1.0), dof=float(dof), effect=r)


def ols(y, X) -> np.ndarray:
    """Least-squares coefficients of y on X, intercept first.

    Raises RankDeficientError when the intercept-augmented design matrix
    does not have full column rank.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    X = np.column_stack([np.ones(X.shape[0]), X])
    n, p = X.shape
    if n <= p:
        raise SampleTooSmallError(f"need more rows ({n}) than columns ({p})")
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < p:
        raise RankDeficientError(f"design matrix rank {rank} < {p} columns")
    return beta


@dataclass(frozen=True)
class FoldIncrease:
    """Rate ratio against a base rate; ``factor`` is the one-decimal display value."""

    ratio: float
    factor: float


def fold_increase(rate_in_group: float, base_rate: float) -> FoldIncrease:
    """Ratio of a subgroup's event rate to the cohort base rate."""
    if base_rate <= 0:
        raise ZeroBaseError(f"base rate must be > 0, got {base_rate}")
    ratio = rate_in_group / base_rate
    return FoldIncrease(ratio=ratio, factor=round(ratio, 1))
