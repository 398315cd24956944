"""The seeded synthetic clinical cohort behind ``causaltab synth``.

A 265-row table laid out like the published cohort, whose outcome
dependence runs through a declared ground-truth graph over seven
engineered (backbone) columns; the background columns carry no outcome
signal.
"""

from __future__ import annotations

import math

import numpy as np

from .data import ColumnSchema, Dataset, KIND_BINARY, KIND_CONTINUOUS, KIND_ORDINAL
from .graph import MixedGraph
from .stats import point_biserial

__all__ = ["make_clinical_synth"]

_COHORT_ROWS = 265
_DEATHS = 71
_OUTCOME_NAME = "OUTCOME"

# Every column in schema order: (name, category, kind, params, missing cells,
# units). Binary params are the prevalence, ordinal params are level
# probabilities, continuous params are (mu, sigma). Backbone columns have
# params None and come from ``_backbone_columns``: the outcome depends on
# AGE, PF, BUN, COPD and MYALGIA directly; CONFUSION hangs off AGE and
# CREATININE feeds BUN, so every backbone feature sits within two hops of
# the outcome.
_COLUMNS: tuple[tuple, ...] = (
    ("AGE", "demographic", KIND_CONTINUOUS, None, 0, "years"),
    ("SEX", "demographic", KIND_BINARY, 0.32, 0, ""),
    ("SMOKE_YN", "demographic", KIND_BINARY, 0.25, 12, ""),
    ("SMOKE_EXYN", "demographic", KIND_ORDINAL, (0.15, 0.25, 0.60), 14, ""),
    ("COPD", "respiratory", KIND_BINARY, None, 0, ""),
    ("ASTHMA", "respiratory", KIND_BINARY, 0.09, 0, ""),
    ("OTHER_RESP_DISEASE", "respiratory", KIND_BINARY, 0.10, 0, ""),
    ("DIABETES", "prior_diseases", KIND_BINARY, 0.20, 0, ""),
    ("HYPERTENSION", "prior_diseases", KIND_BINARY, 0.42, 0, ""),
    ("CARDIO_DISEASE", "prior_diseases", KIND_BINARY, 0.30, 0, ""),
    ("HYPERCOLEST", "prior_diseases", KIND_BINARY, 0.20, 0, ""),
    ("CEREBROVASC_DISEASE", "prior_diseases", KIND_BINARY, 0.10, 0, ""),
    ("KIDNEY_DISEASE", "prior_diseases", KIND_BINARY, 0.09, 0, ""),
    ("CANCER", "prior_diseases", KIND_BINARY, 0.11, 0, ""),
    ("DEMENTIA", "prior_diseases", KIND_BINARY, 0.08, 0, ""),
    ("ANTICOAG", "treatments", KIND_BINARY, 0.25, 0, ""),
    ("RAAS_BLOCK", "treatments", KIND_BINARY, 0.30, 0, ""),
    ("IMMUNOS_THERAPY", "treatments", KIND_BINARY, 0.05, 0, ""),
    ("DIALYSIS", "treatments", KIND_BINARY, 0.04, 0, ""),
    ("FEVER", "symptoms", KIND_BINARY, 0.75, 0, ""),
    ("COUGH", "symptoms", KIND_BINARY, 0.55, 0, ""),
    ("FATIGUE", "symptoms", KIND_BINARY, 0.25, 0, ""),
    ("SHORT_BREATH", "symptoms", KIND_BINARY, 0.45, 0, ""),
    ("HEADACHE", "symptoms", KIND_BINARY, 0.09, 0, ""),
    ("DIARRHEA", "symptoms", KIND_BINARY, 0.13, 0, ""),
    ("FC", "symptoms", KIND_CONTINUOUS, (87.3, 17.8), 16, ""),
    ("PAS", "symptoms", KIND_CONTINUOUS, (131.4, 20.3), 16, ""),
    ("PAD", "symptoms", KIND_CONTINUOUS, (75.9, 13.3), 16, ""),
    ("HAEMOGLOBIN", "blood", KIND_CONTINUOUS, (13.3, 2.0), 9, ""),
    ("WBC", "blood", KIND_CONTINUOUS, (7.7, 3.8), 4, ""),
    ("LYMPHOCYTE", "blood", KIND_CONTINUOUS, (1200.0, 1140.0), 6, ""),
    ("PLATELETS", "blood", KIND_CONTINUOUS, (206.3, 102.1), 5, ""),
    ("GLUCOSE", "blood", KIND_CONTINUOUS, (127.4, 46.3), 12, ""),
    ("SODIUM", "blood", KIND_CONTINUOUS, (138.1, 4.6), 7, ""),
    ("POTASSIUM", "blood", KIND_CONTINUOUS, (4.02, 0.67), 11, ""),
    ("PH", "blood", KIND_CONTINUOUS, (7.45, 0.06), 22, ""),
    ("PO2", "blood", KIND_CONTINUOUS, (75.3, 32.7), 14, ""),
    ("PCO2", "blood", KIND_CONTINUOUS, (34.6, 7.9), 18, ""),
    ("PCR", "blood", KIND_CONTINUOUS, (9.25, 8.55), 15, ""),
    ("MYALGIA", "symptoms", KIND_BINARY, None, 0, ""),
    ("CONFUSION", "symptoms", KIND_BINARY, None, 0, ""),
    ("CREATININE", "blood", KIND_CONTINUOUS, None, 7, "mg/dl"),
    ("BUN", "blood", KIND_CONTINUOUS, None, 18, "mg/dl"),
    ("PF", "blood", KIND_CONTINUOUS, None, 12, "mmHg"),
    (_OUTCOME_NAME, "outcome", KIND_BINARY, None, 0, ""),
)

#: (mean, sd) of the continuous backbone columns around their latent z-scores.
_BACKBONE_MOMENTS = {
    "AGE": (66.6, 15.9),
    "PF": (283.2, 95.8),
    "BUN": (27.9, 24.8),
    "CREATININE": (1.22, 1.09),
}

#: Missing cells go to the background columns in table order, then to these
#: backbone columns in this order; the order fixes the seeded positions.
_BACKBONE_MISSING_ORDER = ("PF", "BUN", "CREATININE")

_COPD_PREVALENCE = 64 / 265
_MYALGIA_PREVALENCE = 66 / 265
_CONFUSION_COUNT = 48

# Liability loadings (latent standardized scale). The shared AGE/PF loading
# is tuned by bisection against a pilot sample; the rest are fixed.
_LOAD_BUN = 0.5
_LOAD_COPD = 1.05
_LOAD_MYALGIA = 1.15
_LOAD_CONFUSION_AGE = 0.95
_CORR_AGE_PF = -0.40
_CORR_AGE_BUN = 0.42
_CORR_PF_MYALGIA = 0.3
_CORR_CREAT_BUN = 0.55
_OUTCOME_NOISE_SD = 0.30
_PBC_TARGET = 0.46
#: Shared AGE/PF loading at which a 100k-row pilot sample hits the AGE
#: point-biserial target; it centers the per-sample search in
#: ``_refine_loads``. tests/test_synth.py recomputes it by bisection.
_AGE_PF_LOAD = 0.3419238310828194


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
    copd = _exact_count_indicator(-lat["eps_copd"], int(round(_COPD_PREVALENCE * n)))
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

    liability = (
        -age_load * z_age
        + pf_load * z_pf
        - _LOAD_BUN * z_bun
        - _LOAD_COPD * (copd - _COPD_PREVALENCE)
        + _LOAD_MYALGIA * (myalgia - _MYALGIA_PREVALENCE)
        + _OUTCOME_NOISE_SD * lat["eps_out"]
    )
    n_dead = int(round(_DEATHS * n / _COHORT_ROWS))
    cut = np.partition(liability, n_dead - 1)[n_dead - 1]
    outcome = (liability > cut).astype(float)  # 0 = death, 1 = recovery

    z = {"AGE": z_age, "PF": z_pf, "BUN": z_bun, "CREATININE": z_cr}
    return {
        **{name: mu + sd * z[name] for name, (mu, sd) in _BACKBONE_MOMENTS.items()},
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
    spec = {row[0]: row for row in _COLUMNS}
    background = [row[0] for row in _COLUMNS if row[3] is not None]

    for name in background:
        kind, params = spec[name][2:4]
        if name == "PAD":
            # PAD tracks PAS; draw jointly to give the symptoms category
            # one internal edge that does not involve the outcome.
            pas_mu, pas_sd = spec["PAS"][3]
            pas_z = (columns["PAS"] - pas_mu) / pas_sd
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
    for name in background + list(_BACKBONE_MISSING_ORDER):
        miss = spec[name][4]
        if miss > 0:
            rows = rng.choice(n, size=miss, replace=False)
            col = columns[name].copy()
            col[rows] = np.nan
            columns[name] = col

    schema = []
    for name, category, kind, params, _miss, units in _COLUMNS:
        if kind == KIND_CONTINUOUS:
            schema.append(ColumnSchema(name, kind, category, units=units))
        else:
            n_levels = len(params) if kind == KIND_ORDINAL else 2
            levels = tuple(str(i) for i in range(n_levels))
            schema.append(ColumnSchema(name, kind, category, levels=levels))

    dataset = Dataset(schema, columns)
    return dataset, clinical_truth_graph()
