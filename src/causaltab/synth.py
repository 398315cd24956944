"""Ground-truth generators backing the test harness.

Provides a linear Gaussian SEM sampler, structural Hamming distance, and a
seeded synthetic clinical cohort whose outcome dependence runs through a
declared ground-truth graph. The exact d-separation oracle lives in
:mod:`causaltab.graph`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import ColumnSchema, Dataset, KIND_BINARY, KIND_CONTINUOUS, KIND_ORDINAL
from .errors import NodeMismatchError
from .graph import MixedGraph, _directed_maps, topological_order
from .stats import point_biserial

__all__ = [
    "LinearSEM",
    "sample_sem",
    "sem_from_edges",
    "shd",
    "make_clinical_synth",
]


# -- linear Gaussian SEM ------------------------------------------------------

@dataclass(frozen=True)
class LinearSEM:
    """Fully directed acyclic graph with edge coefficients and per-node noise."""

    dag: MixedGraph
    coefficients: dict[tuple[str, str], float]
    noise_sd: dict[str, float]

    def __post_init__(self):
        topological_order(self.dag)  # raises CyclicGraphError when not a DAG
        for src, dst in self.dag.directed_edges():
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


# -- synthetic clinical cohort ------------------------------------------------------

_COHORT_ROWS = 265
_DEATHS = 71
_OUTCOME_NAME = "OUTCOME"

# Engineered columns: the outcome depends on AGE, PF, BUN, COPD and MYALGIA
# directly; CONFUSION hangs off AGE and CREATININE feeds BUN, so every
# backbone feature sits within two hops of the outcome.
_BB_AGE = ("AGE", "demographic", 66.6, 15.9, 0)
_BB_PF = ("PF", "blood", 283.2, 95.8, 12)
_BB_BUN = ("BUN", "blood", 27.9, 24.8, 18)
_BB_CREATININE = ("CREATININE", "blood", 1.22, 1.09, 7)

_COPD_PREVALENCE = 64 / 265
_MYALGIA_PREVALENCE = 66 / 265
_CONFUSION_COUNT = 48

# Liability loadings (latent standardized scale). The shared AGE/PF loading
# is tuned by bisection against a pilot sample; the rest are fixed.
_LOAD_BUN = 0.5
_LOAD_COPD = 1.05
_LOAD_MYALGIA = 1.15
_LOAD_CONFUSION_AGE = 0.95
_LOAD_CONFUSION_OUT = 0.0
_CORR_AGE_PF = -0.40
_CORR_AGE_BUN = 0.42
_CORR_AGE_COPD = 0.0
_CORR_PF_MYALGIA = 0.3
_CORR_CREAT_BUN = 0.55
_OUTCOME_NOISE_SD = 0.30
_PBC_TARGET = 0.46
#: Shared AGE/PF loading at which a 100k-row pilot sample hits the AGE
#: point-biserial target; it centers the per-sample search in
#: ``_refine_loads``. tests/test_synth.py recomputes it by bisection.
_AGE_PF_LOAD = 0.3419238310828194

# Background columns: (name, category, kind, params, missing_rows). Binary
# params are the prevalence, ordinal params are level probabilities,
# continuous params are (mu, sigma).
_NOISE_COLUMNS: tuple[tuple, ...] = (
    ("SEX", "demographic", KIND_BINARY, 0.32, 0),
    ("SMOKE_YN", "demographic", KIND_BINARY, 0.25, 12),
    ("SMOKE_EXYN", "demographic", KIND_ORDINAL, (0.15, 0.25, 0.60), 14),
    ("ASTHMA", "respiratory", KIND_BINARY, 0.09, 0),
    ("OTHER_RESP_DISEASE", "respiratory", KIND_BINARY, 0.10, 0),
    ("DIABETES", "prior_diseases", KIND_BINARY, 0.20, 0),
    ("HYPERTENSION", "prior_diseases", KIND_BINARY, 0.42, 0),
    ("CARDIO_DISEASE", "prior_diseases", KIND_BINARY, 0.30, 0),
    ("HYPERCOLEST", "prior_diseases", KIND_BINARY, 0.20, 0),
    ("CEREBROVASC_DISEASE", "prior_diseases", KIND_BINARY, 0.10, 0),
    ("KIDNEY_DISEASE", "prior_diseases", KIND_BINARY, 0.09, 0),
    ("CANCER", "prior_diseases", KIND_BINARY, 0.11, 0),
    ("DEMENTIA", "prior_diseases", KIND_BINARY, 0.08, 0),
    ("ANTICOAG", "treatments", KIND_BINARY, 0.25, 0),
    ("RAAS_BLOCK", "treatments", KIND_BINARY, 0.30, 0),
    ("IMMUNOS_THERAPY", "treatments", KIND_BINARY, 0.05, 0),
    ("DIALYSIS", "treatments", KIND_BINARY, 0.04, 0),
    ("FEVER", "symptoms", KIND_BINARY, 0.75, 0),
    ("COUGH", "symptoms", KIND_BINARY, 0.55, 0),
    ("FATIGUE", "symptoms", KIND_BINARY, 0.25, 0),
    ("SHORT_BREATH", "symptoms", KIND_BINARY, 0.45, 0),
    ("HEADACHE", "symptoms", KIND_BINARY, 0.09, 0),
    ("DIARRHEA", "symptoms", KIND_BINARY, 0.13, 0),
    ("FC", "symptoms", KIND_CONTINUOUS, (87.3, 17.8), 16),
    ("PAS", "symptoms", KIND_CONTINUOUS, (131.4, 20.3), 16),
    ("PAD", "symptoms", KIND_CONTINUOUS, (75.9, 13.3), 16),
    ("HAEMOGLOBIN", "blood", KIND_CONTINUOUS, (13.3, 2.0), 9),
    ("WBC", "blood", KIND_CONTINUOUS, (7.7, 3.8), 4),
    ("LYMPHOCYTE", "blood", KIND_CONTINUOUS, (1200.0, 1140.0), 6),
    ("PLATELETS", "blood", KIND_CONTINUOUS, (206.3, 102.1), 5),
    ("GLUCOSE", "blood", KIND_CONTINUOUS, (127.4, 46.3), 12),
    ("SODIUM", "blood", KIND_CONTINUOUS, (138.1, 4.6), 7),
    ("POTASSIUM", "blood", KIND_CONTINUOUS, (4.02, 0.67), 11),
    ("PH", "blood", KIND_CONTINUOUS, (7.45, 0.06), 22),
    ("PO2", "blood", KIND_CONTINUOUS, (75.3, 32.7), 14),
    ("PCO2", "blood", KIND_CONTINUOUS, (34.6, 7.9), 18),
    ("PCR", "blood", KIND_CONTINUOUS, (9.25, 8.55), 15),
)


def clinical_truth_graph() -> MixedGraph:
    """The fully directed ground-truth graph over the engineered columns."""
    g = MixedGraph(
        ["AGE", "PF", "BUN", "CREATININE", "COPD", "MYALGIA", "CONFUSION", _OUTCOME_NAME]
    )
    for src, dst in (
        ("AGE", _OUTCOME_NAME),
        ("PF", _OUTCOME_NAME),
        ("BUN", _OUTCOME_NAME),
        ("COPD", _OUTCOME_NAME),
        ("MYALGIA", _OUTCOME_NAME),
        ("AGE", "CONFUSION"),
        ("AGE", "PF"),
        ("AGE", "BUN"),
        ("CREATININE", "BUN"),
    ):
        g.add_directed_edge(src, dst)
    return g


_LATENT_NAMES = (
    "z_cr", "eps_bun", "z_age", "eps_pf",
    "eps_copd", "eps_mya", "eps_conf", "eps_out",
)


def _backbone_latents(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Exogenous draws with exact in-sample moments.

    The continuous latents are whitened per sample (mean 0, sd 1, pairwise
    sample correlation 0) and the binary indicators hit their margins
    exactly, which keeps the cohort's calibration targets tight at n=265.
    """
    raw = rng.standard_normal((n, len(_LATENT_NAMES)))
    centered = raw - raw.mean(axis=0)
    q, r = np.linalg.qr(centered)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    white = q * signs * math.sqrt(n - 1)
    return {name: white[:, k] for k, name in enumerate(_LATENT_NAMES)}


def _exact_count_indicator(u: np.ndarray, count: int) -> np.ndarray:
    """0/1 column with exactly ``count`` ones, placed at the smallest draws."""
    order = np.argsort(u, kind="stable")
    out = np.zeros(u.shape[0])
    out[order[:count]] = 1.0
    return out


def _backbone_columns(
    lat: dict[str, np.ndarray], age_load: float, pf_load: float | None = None
) -> dict[str, np.ndarray]:
    """Deterministic transform of the latent draws into coded backbone columns."""
    pf_load = age_load if pf_load is None else pf_load
    n = lat["z_age"].shape[0]
    z_age = lat["z_age"]
    z_cr = lat["z_cr"]
    resid_bun = math.sqrt(1 - _CORR_AGE_BUN**2 - _CORR_CREAT_BUN**2)
    z_bun = _CORR_AGE_BUN * z_age + _CORR_CREAT_BUN * z_cr + resid_bun * lat["eps_bun"]
    z_pf = _CORR_AGE_PF * z_age + math.sqrt(1 - _CORR_AGE_PF**2) * lat["eps_pf"]
    copd_liability = _CORR_AGE_COPD * z_age + math.sqrt(
        1 - _CORR_AGE_COPD**2
    ) * lat["eps_copd"]
    copd = _exact_count_indicator(-copd_liability, int(round(_COPD_PREVALENCE * n)))
    mya_liability = _CORR_PF_MYALGIA * z_pf + math.sqrt(
        1 - _CORR_PF_MYALGIA**2
    ) * lat["eps_mya"]
    myalgia = _exact_count_indicator(-mya_liability, int(round(_MYALGIA_PREVALENCE * n)))

    conf_liability = _LOAD_CONFUSION_AGE * z_age + math.sqrt(
        1 - _LOAD_CONFUSION_AGE**2
    ) * lat["eps_conf"]
    n_conf = int(round(_CONFUSION_COUNT * n / _COHORT_ROWS))
    conf_cut = np.partition(conf_liability, n - n_conf - 1)[n - n_conf - 1]
    confusion = (conf_liability > conf_cut).astype(float)

    conf_rate = n_conf / n
    liability = (
        -age_load * z_age
        + pf_load * z_pf
        - _LOAD_BUN * z_bun
        - _LOAD_COPD * (copd - _COPD_PREVALENCE)
        - _LOAD_CONFUSION_OUT * (confusion - conf_rate)
        + _LOAD_MYALGIA * (myalgia - _MYALGIA_PREVALENCE)
        + _OUTCOME_NOISE_SD * lat["eps_out"]
    )
    n_dead = int(round(_DEATHS * n / _COHORT_ROWS))
    cut = np.partition(liability, n_dead - 1)[n_dead - 1]
    outcome = (liability > cut).astype(float)  # 0 = death, 1 = recovery

    return {
        "AGE": _BB_AGE[2] + _BB_AGE[3] * z_age,
        "PF": _BB_PF[2] + _BB_PF[3] * z_pf,
        "BUN": _BB_BUN[2] + _BB_BUN[3] * z_bun,
        "CREATININE": _BB_CREATININE[2] + _BB_CREATININE[3] * z_cr,
        "COPD": copd,
        "MYALGIA": myalgia,
        "CONFUSION": confusion,
        _OUTCOME_NAME: outcome,
    }


def _refine_loads(lat: dict[str, np.ndarray], center: float) -> tuple[float, float]:
    """Per-sample coordinate bisection of the two outcome loads.

    The pilot value centers the search; refining against the realized draws
    removes the finite-sample spread that would otherwise push the cohort's
    point-biserial targets out of their band at n=265.
    """

    def realized(age_load: float, pf_load: float) -> tuple[float, float]:
        cols = _backbone_columns(lat, age_load, pf_load)
        return (
            point_biserial(cols[_OUTCOME_NAME], cols["AGE"]).effect,
            point_biserial(cols[_OUTCOME_NAME], cols["PF"]).effect,
        )

    a_age = a_pf = center
    lo_bound, hi_bound = 0.01, max(1.6, 4.0 * center)
    for _round in range(3):
        lo, hi = lo_bound, hi_bound
        for _ in range(28):
            mid = 0.5 * (lo + hi)
            r_age, _ = realized(mid, a_pf)
            if -r_age < _PBC_TARGET:
                lo = mid
            else:
                hi = mid
        a_age = 0.5 * (lo + hi)
        lo, hi = lo_bound, hi_bound
        for _ in range(28):
            mid = 0.5 * (lo + hi)
            _, r_pf = realized(a_age, mid)
            if r_pf < _PBC_TARGET:
                lo = mid
            else:
                hi = mid
        a_pf = 0.5 * (lo + hi)
    return a_age, a_pf


def make_clinical_synth(seed: int) -> tuple[Dataset, MixedGraph]:
    """Seeded 265-row synthetic cohort plus its ground-truth graph.

    Marginals mimic the published cohort layout; the outcome margin is
    fixed at 71 deaths / 194 recoveries and the AGE and PF point-biserial
    correlations with the outcome are tuned to -0.46 / +0.46.
    """
    n = _COHORT_ROWS
    rng = np.random.default_rng(seed)
    lat = _backbone_latents(rng, n)
    age_load, pf_load = _refine_loads(lat, _AGE_PF_LOAD)
    columns = _backbone_columns(lat, age_load, pf_load)

    for name, _category, kind, params, _miss in _NOISE_COLUMNS:
        if name == "PAD":
            # PAD tracks PAS; draw jointly to give the symptoms category
            # one internal edge that does not involve the outcome.
            pas_z = (columns["PAS"] - 131.4) / 20.3
            columns[name] = params[0] + params[1] * (
                0.6 * pas_z + 0.8 * rng.standard_normal(n)
            )
        elif kind == KIND_BINARY:
            columns[name] = (rng.random(n) < params).astype(float)
        elif kind == KIND_ORDINAL:
            cum = np.cumsum(params)
            columns[name] = np.searchsorted(cum, rng.random(n), side="right").astype(float)
        else:
            mu, sigma = params
            columns[name] = mu + sigma * rng.standard_normal(n)

    # scattered missing cells, counts per column fixed, positions seeded
    missing_plan = [
        (name, miss)
        for name, _cat, _kind, _params, miss in _NOISE_COLUMNS
        if miss > 0
    ] + [(spec[0], spec[4]) for spec in (_BB_PF, _BB_BUN, _BB_CREATININE) if spec[4] > 0]
    for name, miss in missing_plan:
        rows = rng.choice(n, size=miss, replace=False)
        col = columns[name].copy()
        col[rows] = np.nan
        columns[name] = col

    schema = [
        ColumnSchema(_BB_AGE[0], KIND_CONTINUOUS, _BB_AGE[1], units="years"),
        ColumnSchema("SEX", KIND_BINARY, "demographic", levels=("0", "1")),
        ColumnSchema("SMOKE_YN", KIND_BINARY, "demographic", levels=("0", "1")),
        ColumnSchema("SMOKE_EXYN", KIND_ORDINAL, "demographic", levels=("0", "1", "2")),
        ColumnSchema("COPD", KIND_BINARY, "respiratory", levels=("0", "1")),
        ColumnSchema("ASTHMA", KIND_BINARY, "respiratory", levels=("0", "1")),
        ColumnSchema("OTHER_RESP_DISEASE", KIND_BINARY, "respiratory", levels=("0", "1")),
    ]
    for name, category, kind, params, _miss in _NOISE_COLUMNS:
        if name in ("SEX", "SMOKE_YN", "SMOKE_EXYN", "ASTHMA", "OTHER_RESP_DISEASE"):
            continue
        if kind == KIND_BINARY:
            schema.append(ColumnSchema(name, kind, category, levels=("0", "1")))
        elif kind == KIND_ORDINAL:
            schema.append(
                ColumnSchema(name, kind, category, levels=tuple(str(i) for i in range(len(params))))
            )
        else:
            schema.append(ColumnSchema(name, kind, category))
    schema.append(ColumnSchema("MYALGIA", KIND_BINARY, "symptoms", levels=("0", "1")))
    schema.append(ColumnSchema("CONFUSION", KIND_BINARY, "symptoms", levels=("0", "1")))
    schema.append(ColumnSchema("CREATININE", KIND_CONTINUOUS, "blood", units="mg/dl"))
    schema.append(ColumnSchema("BUN", KIND_CONTINUOUS, "blood", units="mg/dl"))
    schema.append(ColumnSchema("PF", KIND_CONTINUOUS, "blood", units="mmHg"))
    schema.append(
        ColumnSchema(_OUTCOME_NAME, KIND_BINARY, "outcome", levels=("0", "1"))
    )

    dataset = Dataset(schema, columns)
    return dataset, clinical_truth_graph()
