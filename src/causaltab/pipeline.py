"""Three-step analysis workflow over a configured clinical dataset.

Step 1 learns one graph per feature category (outcome included in each),
selecting features within two hops of the outcome. Step 2 re-learns an
integrated graph over the selected features, runs the bivariate tests,
and fits the interpretable depth-limited tree. Step 3 cross-validates the
tree's features and compares them against trees on randomly drawn feature
sets with matched subject counts.
"""

from __future__ import annotations

import json
from dataclasses import Field, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import KIND_BINARY, OUTCOME_CATEGORY, Dataset, DatasetView, complete_cases, summarize
from .discovery import CITest, LearnConfig, run_fci
from .effects import annotate_strengths, effect_table
from .errors import CausalTabError, NoFeatureError
from .graph import MixedGraph, PriorKnowledge, neighbors_within, to_dot
from .stats import (
    ContingencyTable2x2,
    fisher_exact,
    fold_increase,
    point_biserial,
)
from .tree import (
    Metrics,
    PermutationResult,
    TreeNode,
    evaluate,
    fit_tree,
    kfold_cv,
    permutation_baseline,
    tree_features,
    tree_to_dot,
)

__all__ = [
    "PipelineConfig",
    "CategoryResult",
    "Step1Result",
    "Step2Result",
    "Step3Result",
    "PipelineReport",
    "step1_per_category",
    "step2_integrated",
    "step3_predictive",
    "run_full",
    "write_step1",
    "write_step2",
    "write_step3",
    "write_report",
]

#: Display cutoff for fold-increase factors (one-decimal rounding first).
FOLD_DISPLAY_MIN = 1.2


#: Python types of the PipelineConfig field annotations (first union member)
_CONFIG_TYPES = {"str": str, "float": float, "int": int, "bool": bool}


def config_field_type(f: Field) -> tuple[type, bool]:
    """Type of a PipelineConfig field other than ``prior``, and whether it may be None."""
    kind, *optional = f.type.split(" | ")
    return _CONFIG_TYPES[kind], bool(optional)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the full workflow; defaults follow the reference protocol."""

    outcome: str | None = None
    alpha: float = 0.05
    max_cond_size: int | None = 3
    do_possible_dsep: bool = False
    do_orientation: bool = True
    tree_max_depth: int = 4
    cv_folds: int = 10
    permutation_trials: int = 1000
    permutation_features: int | None = None
    max_missing: int | None = None
    min_rows: int = 20
    seed: int = 0
    prior: PriorKnowledge | None = None

    def __post_init__(self):
        self.learn_config()  # LearnConfig checks alpha and max_cond_size
        if self.tree_max_depth < 1:
            raise ValueError(f"tree_max_depth must be >= 1, got {self.tree_max_depth}")
        if self.cv_folds < 2:
            raise ValueError(f"cv_folds must be >= 2, got {self.cv_folds}")
        if self.permutation_features is not None and self.permutation_features < 1:
            raise ValueError(
                f"permutation_features must be None or >= 1, got {self.permutation_features}"
            )

    def learn_config(self) -> LearnConfig:
        return LearnConfig(
            alpha=self.alpha,
            max_cond_size=self.max_cond_size,
            do_possible_dsep=self.do_possible_dsep,
            do_orientation=self.do_orientation,
        )

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "prior"}
        if self.prior is not None:
            out["prior"] = self.prior.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PipelineConfig":
        """Inverse of :meth:`to_json_dict`; a key that names no field is an error."""
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for f in fields(cls):
            if f.name not in payload or f.name == "prior":
                continue
            value = payload[f.name]
            kind, optional = config_field_type(f)
            if value is None and optional:
                continue
            accepted = (int, float) if kind is float else kind  # a float may be written as 1
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
                raise ValueError(f"field {f.name!r} must be {f.type}, got {value!r}")
        kwargs = dict(payload)
        prior = kwargs.pop("prior", None)
        return cls(prior=PriorKnowledge.from_json_dict(prior) if prior else None, **kwargs)


@dataclass(frozen=True)
class CategoryResult:
    category: str
    columns: tuple[str, ...]
    dropped_constant: tuple[str, ...]
    n_rows: int
    graph: MixedGraph
    selected: tuple[str, ...]
    tests_run: int


@dataclass(frozen=True)
class Step1Result:
    per_category: tuple[CategoryResult, ...]
    selected_features: tuple[str, ...]


@dataclass(frozen=True)
class Step2Result:
    columns: tuple[str, ...]
    dropped_constant: tuple[str, ...]
    n_rows: int
    graph: MixedGraph
    effects: tuple[dict, ...]
    bivariate: tuple[dict, ...]
    tree: TreeNode = field(metadata={"report": False})  # written to tree.dot
    tree_features: tuple[str, ...]
    train_metrics: Metrics
    tests_run: int


@dataclass(frozen=True)
class Step3Result:
    tree_features: tuple[str, ...]
    n_rows: int
    cv_metrics: Metrics
    permutation: PermutationResult | None
    comparison: dict | None


@dataclass(frozen=True)
class PipelineReport:
    """The whole analysis.

    Steps 2 and 3 are None when step 1 selects nothing, and step 3 is None
    when the step-2 tree uses no feature.
    """

    config: PipelineConfig
    outcome: str
    summary: dict
    step1: Step1Result
    step2: Step2Result | None
    step3: Step3Result | None

    def to_json(self) -> str:
        return _dumps(self)


def _dumps(result) -> str:
    """The JSON text of every output file: plain types, indent 2, sorted keys."""
    return json.dumps(_plain(result), indent=2, sort_keys=True)


def _plain(obj):
    """The JSON form of a result.

    An object with ``to_json_dict`` is written as what it returns. Any
    other dataclass is written as its fields, leaving out fields that hold
    None and fields marked ``metadata={"report": False}``. Tuples become
    lists and numpy scalars Python numbers, so the text is deterministic.
    """
    if hasattr(obj, "to_json_dict"):
        return _plain(obj.to_json_dict())
    if is_dataclass(obj):
        return {
            f.name: _plain(value)
            for f in fields(obj)
            if f.metadata.get("report", True) and (value := getattr(obj, f.name)) is not None
        }
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _resolve_outcome(dataset: Dataset, config: PipelineConfig) -> str:
    return config.outcome or dataset.outcome_column()


def _eligible_features(dataset: Dataset, config: PipelineConfig, outcome: str) -> list[str]:
    """Feature pool after the optional missing-count cutoff.

    The analysed outcome and every column of the outcome category stay out.
    """
    out = []
    for col in dataset.schema:
        if col.name == outcome or col.category == OUTCOME_CATEGORY:
            continue
        if config.max_missing is not None and dataset.missing_count(col.name) >= config.max_missing:
            continue
        out.append(col.name)
    return out


def _analysis_view(
    dataset: Dataset, columns: Sequence[str], outcome: str
) -> tuple[DatasetView, tuple[str, ...]]:
    """Complete-case view on columns + outcome, dropping in-view constant columns."""
    cols = [*columns, outcome]
    view = complete_cases(dataset, cols)
    dropped = []
    kept = []
    for c in cols:
        vals = view.coded(c)
        if vals.size and np.all(vals == vals[0]):
            dropped.append(c)
        else:
            kept.append(c)
    if dropped:
        view = DatasetView(dataset, tuple(kept), view.rows)
    return view, tuple(dropped)


def _prior_for(prior: PriorKnowledge | None, columns: Sequence[str]) -> PriorKnowledge | None:
    """Restrict constraints to pairs fully inside this analysis view."""
    if prior is None:
        return None
    cols = set(columns)
    return PriorKnowledge(
        forbidden=frozenset(p for p in prior.forbidden if p <= cols),
        required=frozenset(p for p in prior.required if p <= cols),
    )


def step1_per_category(
    dataset: Dataset,
    config: PipelineConfig,
    ci_test: CITest | None = None,
) -> Step1Result:
    """Per-category structure learning; selects features within 2 hops of the outcome."""
    outcome = _resolve_outcome(dataset, config)
    if config.prior is not None:
        config.prior.validate_names(dataset.column_names)
    eligible = set(_eligible_features(dataset, config, outcome))
    results = []
    selected: dict[str, None] = {}
    for category in dataset.categories():
        cols = [
            c.name
            for c in dataset.schema
            if c.category == category and c.name in eligible
        ]
        if not cols:
            continue
        view, dropped = _analysis_view(dataset, cols, outcome)
        # too few rows, a constant outcome, or no feature left beside the outcome
        if view.n_rows < config.min_rows or outcome not in view.columns or len(view.columns) < 2:
            continue
        fci = run_fci(view, config.learn_config(), _prior_for(config.prior, view.columns), ci_test)
        graph = annotate_strengths(fci.graph, effect_table(view, fci.graph, outcome))
        near = sorted(
            neighbors_within(graph, outcome, 2),
            key=dataset.column_index,
        )
        for f in near:
            selected.setdefault(f, None)
        results.append(
            CategoryResult(
                category=category,
                columns=view.columns,
                dropped_constant=dropped,
                n_rows=view.n_rows,
                graph=graph,
                selected=tuple(near),
                tests_run=fci.tests_run,
            )
        )
    ordered = sorted(selected, key=dataset.column_index)
    return Step1Result(per_category=tuple(results), selected_features=tuple(ordered))


def _bivariate_rows(dataset: Dataset, features: Sequence[str], outcome: str) -> list[dict]:
    """Pairwise-complete bivariate tests of each feature against the outcome, as report rows."""
    base_view = complete_cases(dataset, [outcome])
    base_codes = base_view.coded(outcome)
    base_death = float((base_codes == 0).mean())
    base_recovery = 1.0 - base_death
    rows = []
    for feat in features:
        sch = dataset.schema_for(feat)
        pair = complete_cases(dataset, [feat, outcome])
        fvals = pair.coded(feat)
        ovals = pair.coded(outcome)
        if sch.kind == KIND_BINARY:
            present = fvals == 1
            a = int(((ovals == 0) & present).sum())
            b = int(((ovals == 1) & present).sum())
            c = int(((ovals == 0) & ~present).sum())
            d = int(((ovals == 1) & ~present).sum())
            test, res = "fisher_exact", fisher_exact(ContingencyTable2x2(a, b, c, d))
            n_with = a + b
            rate_death = a / n_with if n_with else 0.0
            rate_recovery = b / n_with if n_with else 0.0
            death_fold = fold_increase(rate_death, base_death)
            recovery_fold = fold_increase(rate_recovery, base_recovery)
            if death_fold.ratio >= recovery_fold.ratio:
                fold, direction = death_fold, "death"
            else:
                fold, direction = recovery_fold, "recovery"
            extra = {
                "table": [a, b, c, d],
                "rate_with": rate_death,
                "rate_without": c / (c + d) if c + d else 0.0,
                "fold": {
                    "ratio": fold.ratio,
                    "factor": fold.factor,
                    "direction": direction,
                    "shown": fold.factor >= FOLD_DISPLAY_MIN,
                },
            }
        else:
            # continuous and multi-level ordinal features: point-biserial on codes
            test, res = "point_biserial", point_biserial((ovals == 1).astype(float), fvals)
            extra = {}
        rows.append(
            {
                "feature": feat,
                "test": test,
                "n_rows": pair.n_rows,
                "statistic": res.statistic,
                "p_value": res.p_value,
                "effect": res.effect,
                **extra,
            }
        )
    return rows


def step2_integrated(
    dataset: Dataset,
    selected: Sequence[str],
    config: PipelineConfig,
    ci_test: CITest | None = None,
) -> Step2Result:
    """Joint re-analysis of the selected features plus the interpretable tree."""
    if not selected:
        raise NoFeatureError("step 2 needs a non-empty selected feature set")
    outcome = _resolve_outcome(dataset, config)
    view, dropped = _analysis_view(dataset, selected, outcome)
    if outcome not in view.columns:
        raise CausalTabError("outcome is constant on the joint complete cases")
    if len(view.columns) == 1:
        raise NoFeatureError(
            f"every selected feature is constant on the joint complete cases: {', '.join(dropped)}"
        )
    fci = run_fci(view, config.learn_config(), _prior_for(config.prior, view.columns), ci_test)
    effects = tuple(effect_table(view, fci.graph, outcome))
    graph = annotate_strengths(fci.graph, effects)
    features = [c for c in view.columns if c != outcome]
    bivariate = tuple(_bivariate_rows(dataset, features, outcome))
    tree = fit_tree(view, features, outcome, config.tree_max_depth)
    used = sorted(tree_features(tree), key=dataset.column_index)
    train_metrics = evaluate(tree, view, outcome)
    return Step2Result(
        columns=view.columns,
        dropped_constant=dropped,
        n_rows=view.n_rows,
        graph=graph,
        effects=effects,
        bivariate=bivariate,
        tree=tree,
        tree_features=tuple(used),
        train_metrics=train_metrics,
        tests_run=fci.tests_run,
    )


def step3_predictive(
    dataset: Dataset,
    tree_feats: Sequence[str],
    config: PipelineConfig,
) -> Step3Result:
    """CV of the causal features versus the random-feature permutation baseline."""
    if not tree_feats:
        raise NoFeatureError("the step-2 tree uses no feature")
    outcome = _resolve_outcome(dataset, config)
    view = complete_cases(dataset, [*tree_feats, outcome])
    cv = kfold_cv(
        view, list(tree_feats), outcome, config.cv_folds, config.tree_max_depth, config.seed
    )
    if config.permutation_trials <= 0:
        return Step3Result(tuple(tree_feats), view.n_rows, cv, None, None)
    pool = _eligible_features(dataset, config, outcome)
    n_features = config.permutation_features or len(tree_feats)
    perm = permutation_baseline(
        dataset,
        pool,
        outcome,
        n_features=n_features,
        n_trials=config.permutation_trials,
        k=config.cv_folds,
        max_depth=config.tree_max_depth,
        target_n=view.n_rows,
        seed=config.seed,
    )
    mis = perm.misclassification()
    causal_mis = 1.0 - cv.accuracy
    causal_set = set(tree_feats)
    overlap = [len(causal_set & set(t.features)) for t in perm.trials]
    comparison = {
        "causal_misclassification": causal_mis,
        "baseline_mean_misclassification": float(mis.mean()),
        "baseline_quantile_of_causal": float((mis <= causal_mis).mean()),
        "baseline_mean_sensitivity": perm.mean_metric("sensitivity"),
        "baseline_mean_specificity": perm.mean_metric("specificity"),
        "baseline_mean_f1": perm.mean_metric("f1"),
        "baseline_mean_accuracy": perm.mean_metric("accuracy"),
        "trials_containing_causal_feature": int(sum(1 for o in overlap if o > 0)),
        "mean_causal_features_drawn": float(np.mean(overlap)),
        "histogram": [list(row) for row in perm.histogram()],
    }
    return Step3Result(tuple(tree_feats), view.n_rows, cv, perm, comparison)


def run_full(
    dataset: Dataset,
    config: PipelineConfig,
    ci_test: CITest | None = None,
) -> PipelineReport:
    """Steps 1 to 3, skipping steps 2 and 3 when step 1 selects no feature.

    Steps 2 and 3 are also skipped when every selected feature is constant
    on the rows where all of them are observed, and step 3 alone when the
    step-2 tree uses no feature.

    ``ci_test`` replaces the per-view mixed CI test of every graph search,
    e.g. ``oracle_ci_test(dag)`` for validation runs.
    """
    outcome = _resolve_outcome(dataset, config)
    step1 = step1_per_category(dataset, config, ci_test)
    step2 = step3 = None
    if step1.selected_features:
        try:
            step2 = step2_integrated(dataset, step1.selected_features, config, ci_test)
        except NoFeatureError:
            pass  # every selected feature is constant on their joint complete cases
    if step2 is not None and step2.tree_features:
        step3 = step3_predictive(dataset, step2.tree_features, config)
    return PipelineReport(
        config=config,
        outcome=outcome,
        summary=summarize(dataset),
        step1=step1,
        step2=step2,
        step3=step3,
    )


def _output_dir(outdir: str | Path) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _write_json(path: Path, result) -> None:
    path.write_text(_dumps(result) + "\n", encoding="utf-8")


def _write_category_dots(step1: Step1Result, outdir: Path) -> None:
    for cat in step1.per_category:
        (outdir / f"category_{cat.category}.dot").write_text(to_dot(cat.graph), encoding="utf-8")


def _write_step2_dots(step2: Step2Result, outdir: Path, dataset: Dataset) -> None:
    (outdir / "integrated.dot").write_text(to_dot(step2.graph), encoding="utf-8")
    (outdir / "tree.dot").write_text(tree_to_dot(step2.tree, dataset.schema_for), encoding="utf-8")


def _write_histogram(step3: Step3Result, outdir: Path) -> None:
    if step3.permutation is None:
        return
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, count in step3.comparison["histogram"]:
        lines.append(f"{lo:.6f},{hi:.6f},{count}")
    (outdir / "permutation_histogram.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_step1(result: Step1Result, outdir: str | Path) -> None:
    """``step1.json`` plus one DOT graph per category."""
    outdir = _output_dir(outdir)
    _write_json(outdir / "step1.json", result)
    _write_category_dots(result, outdir)


def write_step2(result: Step2Result, outdir: str | Path, dataset: Dataset) -> None:
    """``step2.json`` plus the integrated graph and the tree."""
    outdir = _output_dir(outdir)
    _write_json(outdir / "step2.json", result)
    _write_step2_dots(result, outdir, dataset)


def write_step3(result: Step3Result, outdir: str | Path) -> None:
    """``step3.json`` plus the permutation histogram when there is a baseline."""
    outdir = _output_dir(outdir)
    _write_json(outdir / "step3.json", result)
    _write_histogram(result, outdir)


def write_report(report: PipelineReport, outdir: str | Path, dataset: Dataset) -> None:
    """One output directory: machine report, DOT graphs, tree, histogram.

    A report without steps 2 and 3 writes ``report.json`` and the category
    graphs only; one without step 3 has no histogram.
    """
    outdir = _output_dir(outdir)
    _write_json(outdir / "report.json", report)
    _write_category_dots(report.step1, outdir)
    if report.step2 is not None:
        _write_step2_dots(report.step2, outdir, dataset)
    if report.step3 is not None:
        _write_histogram(report.step3, outdir)
