"""Statistical primitives: tail functions, CI tests, exact tests, OLS.

All operations are pure and deterministic; repeated calls on identical
inputs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, groupby
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


def chisq_sf(x: float, dof: float) -> float:
    """Chi-square survival function P(X > x) with ``dof`` degrees of freedom."""
    if x < 0:
        raise DomainError(f"chisq_sf: x must be >= 0, got {x}")
    if dof <= 0:
        raise DomainError(f"chisq_sf: dof must be > 0, got {dof}")
    return float(gammaincc(dof / 2.0, x / 2.0))


def _partial_correlations(
    corr: np.ndarray, i: int, j: int, givens: Sequence[Sequence[int]]
) -> list[float | None]:
    """Partial correlation of variables i, j given each set of ``givens``, all of one size.

    The correlation submatrices of (i, j, S) are inverted by one
    ``np.linalg.inv`` over the stack, which raises LinAlgError when any of
    them is singular. An entry is None where the inverse gives no
    correlation: inv00 * inv11 is not finite or not positive.
    """
    if not givens[0]:
        return [float(corr[i, j])] * len(givens)
    idx = np.array([[i, j, *given] for given in givens])
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
        (rho,) = _partial_correlations(corr, i, j, [given])
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
    corr: np.ndarray, n: int, i: int, j: int, givens: Sequence[Sequence[int]]
) -> list[float | None]:
    """P-values of ``fisher_z_from_correlation(corr, n, i, j, g)`` for each g in ``givens``.

    The sets must all have one size. An entry is None where the one-set
    test would raise: too few rows, or a singular or ill-conditioned
    submatrix. A singular submatrix leaves every entry at None.
    """
    dof = n - _one_size(givens) - 3
    if dof <= 0:
        return [None] * len(givens)
    try:
        rhos = _partial_correlations(corr, i, j, givens)
    except np.linalg.LinAlgError:
        return [None] * len(givens)
    return [None if rho is None else _fisher_z(rho, dof)[1] for rho in rhos]


def _one_size(givens: Sequence[Sequence]) -> int:
    """The size shared by every conditioning set of a batch."""
    sizes = {len(given) for given in givens}
    if len(sizes) != 1:
        raise ValueError(f"a batch needs conditioning sets of one size, got sizes {sorted(sizes)}")
    return sizes.pop()


def _raise_unfit_for_g2(names: Sequence[str], view: DatasetView) -> NoReturn:
    """Raise for the first of ``names`` that is no complete categorical column of the view.

    Columns are checked for kind first, then for view membership, then for
    missing cells. Called when some name is missing from
    ``view.categorical_codes``, so one of the checks fails: a categorical
    column of the view that the mapping leaves out has a missing cell.
    """
    for name in names:
        sch = view.schema_for(name)
        if not sch.is_categorical:
            raise NotCategoricalError(f"column {name!r} is {sch.kind}, not categorical")
    for name in names:
        view.coded(name)  # UnknownColumnError outside the view
    name = next(name for name in names if name not in view.categorical_codes)
    raise IncompleteViewError(f"column {name!r} has missing cells in this view")


def g_squared_test(
    x: str, y: str, given: Sequence[str], view: DatasetView
) -> TestResult:
    """Likelihood-ratio (G^2) independence test for categorical columns.

    G^2 = 2 * sum O*ln(O/E) over the x-by-y cells within each configuration
    of ``given``; zero-observed cells contribute 0. Degrees of freedom are
    (|x|-1)(|y|-1)*prod(|s|): empty strata are skipped without reducing dof.

    Codes come from ``view.categorical_codes``, decoded once per view, so a
    call only builds and scores the table. A column missing from that
    mapping (continuous, incomplete or outside the view) raises
    NotCategoricalError, UnknownColumnError or IncompleteViewError.
    """
    names = [x, y, *given]
    decoded = view.categorical_codes
    try:
        columns = [decoded[name] for name in names]
    except KeyError:
        _raise_unfit_for_g2(names, view)
    (cx, kx), (cy, ky) = columns[0], columns[1]

    # mixed-radix cell index (stratum, x, y), stratum digits in ``given`` order
    flat = cx * ky + cy
    if given:
        strata = columns[2][0]
        for c, k in columns[3:]:
            strata = strata * k + c
        flat = strata * (kx * ky) + flat
    n_strata = math.prod(k for _, k in columns[2:])
    table = np.bincount(flat, minlength=n_strata * kx * ky).reshape(n_strata, kx, ky)

    totals = table.sum(axis=(1, 2), keepdims=True).astype(float)
    row = table.sum(axis=2, keepdims=True).astype(float)
    col = table.sum(axis=1, keepdims=True).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = row * col / totals
        terms = np.where(table > 0, table * np.log(table / expected), 0.0)
    # terms holds no NaN (a non-empty cell has positive margins), so this is
    # the pairwise sum np.nansum would take
    g2 = max(0.0, 2.0 * float(terms.sum()))
    dof = (kx - 1) * (ky - 1) * n_strata
    return TestResult(statistic=g2, p_value=min(chisq_sf(g2, dof), 1.0), dof=float(dof))


def g_squared_batch(
    x: str, y: str, givens: Sequence[Sequence[str]], view: DatasetView
) -> list[float | None]:
    """P-values of ``g_squared_test(x, y, g, view)`` for each g in ``givens``.

    The sets must all have one size. Their tables are counted by one
    ``bincount`` and scored in one vectorized pass, with every stratum of
    every set side by side on the last axis. Each set's terms are then
    summed as one contiguous row in ``g_squared_test``'s cell order, so
    each p-value is bit-identical to the one-set kernel's. An entry is
    None where that kernel would raise: for a set naming a column that is
    not a complete categorical column of the view.
    """
    size = _one_size(givens)
    out: list[float | None] = [None] * len(givens)
    decoded = view.categorical_codes
    if x not in decoded or y not in decoded:
        return out
    (cx, kx), (cy, ky) = decoded[x], decoded[y]
    # (number of strata, position) of each set that can be counted, sorted
    # so that the sets form few runs of equal strata counts, each of which
    # is summed by one call below
    jobs = sorted(
        (math.prod(decoded[s][1] for s in given), q)
        for q, given in enumerate(givens)
        if all(s in decoded for s in given)
    )
    if not jobs:
        return out
    sets = [givens[q] for _, q in jobs]
    # cell (x, y, stratum s of the i-th set) counts at [x, y, first[i] + s],
    # where s is g_squared_test's mixed-radix stratum index: the sum of each
    # digit times the product of the radices after it
    first = list(accumulate((n_strata for n_strata, _ in jobs), initial=0))
    width = first.pop()
    flat = np.add.outer(np.array(first), (cx * ky + cy) * width)
    place = [1] * len(sets)
    for t in reversed(range(size)):
        digits = np.concatenate([decoded[s[t]][0] for s in sets]).reshape(flat.shape)
        if t < size - 1:
            digits *= np.array(place)[:, None]
        flat += digits
        place = [p * decoded[s[t]][1] for p, s in zip(place, sets)]
    table = np.bincount(flat.ravel(), minlength=kx * ky * width).reshape(kx, ky, width)

    # the margins and r*c are exact integers, so each cell takes the same
    # floating-point steps as in g_squared_test
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = row[:, None] * col[None] / row.sum(axis=0)
        terms = np.where(table > 0, table * np.log(table / expected), 0.0)
    # back to g_squared_test's order: stratum, then x, then y
    terms = np.ascontiguousarray(terms.reshape(kx * ky, width).T)
    start = 0
    for n_strata, run in groupby(jobs, key=lambda job: job[0]):
        queries = [q for _, q in run]
        stop = start + len(queries) * n_strata
        sums = terms[start:stop].reshape(len(queries), -1).sum(axis=1)
        start = stop
        dof = (kx - 1) * (ky - 1) * n_strata
        for q, total in zip(queries, sums.tolist()):
            out[q] = min(chisq_sf(max(0.0, 2.0 * total), dof), 1.0)
    return out


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
