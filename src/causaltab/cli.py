"""Command-line entry points for the analysis workflow."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

from .data import load_csv, summarize
from .discovery import oracle_ci_test
from .errors import CausalTabError
from .graph import MixedGraph, PriorKnowledge
from .pipeline import (
    PipelineConfig,
    config_field_type,
    run_full,
    step1_per_category,
    step2_integrated,
    step3_predictive,
    write_report,
    write_step1,
    write_step2,
    write_step3,
)


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV file with a header row")
    p.add_argument("--schema", required=True, help="sidecar schema JSON")


def _flag_fields():
    """PipelineConfig fields set by one flag each; ``prior`` is read from a file."""
    return [f for f in fields(PipelineConfig) if f.name != "prior"]


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with PipelineConfig fields")
    for f in _flag_fields():
        kind, _ = config_field_type(f)
        if kind is bool:
            # do_x defaulting to False is switched on by --x, one defaulting
            # to True is switched off by --no-x
            word = f.name.removeprefix("do_").replace("_", "-")
            p.add_argument(
                f"--no-{word}" if f.default else f"--{word}",
                dest=f.name,
                action="store_const",
                const=not f.default,
                help=f"set {f.name} to {not f.default}",
            )
        else:
            p.add_argument(
                "--" + f.name.replace("_", "-"),
                dest=f.name,
                type=kind,
                help=f"PipelineConfig.{f.name}",
            )
    p.add_argument("--prior", help="prior-knowledge JSON (forbidden/required pairs)")
    p.add_argument(
        "--oracle-dag",
        help="graph JSON; replaces statistical CI tests with d-separation on it",
    )


@contextmanager
def _reading(what: str):
    """Turn a missing or malformed input, or an unwritable output, into a named CausalTabError."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise CausalTabError(f"{what}: {exc}") from None


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    payload: dict = {}
    if args.config:
        with _reading(f"--config {args.config}"):
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
            if not isinstance(loaded, dict):
                raise ValueError("expected a JSON object of PipelineConfig fields")
            payload.update(loaded)
    for f in _flag_fields():
        value = getattr(args, f.name)
        if value is not None:
            payload[f.name] = value
    with _reading("config"):
        config = PipelineConfig.from_json_dict(payload)
    if args.prior:
        with _reading(f"--prior {args.prior}"):
            config = replace(config, prior=PriorKnowledge.load(args.prior))
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="causaltab",
        description="Causal structure learning and risk-tree analysis of clinical tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="per-column occurrence summary")
    _add_data_args(p)
    p.add_argument("--no-outcome-split", action="store_true")

    p = sub.add_parser("step1", help="per-category graphs and feature selection")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("step2", help="integrated graph, bivariate tests, tree")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--features", help="comma-separated selected features")
    p.add_argument("--from-step1", help="step1 output JSON")
    p.add_argument("--out", required=True)

    p = sub.add_parser("step3", help="CV and permutation comparison")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--features", help="comma-separated tree features")
    p.add_argument("--from-step2", help="step2 output JSON")
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="full three-step pipeline")
    _add_data_args(p)
    _add_config_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="write the seeded synthetic cohort")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except CausalTabError as exc:
        # the one-line message of an input or config error, not a traceback;
        # returned rather than raised so that in-process callers get a status
        print(f"causaltab: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "synth":
        from .synth import make_clinical_synth

        if args.seed < 0:
            raise CausalTabError(f"seed must be >= 0, got {args.seed}")
        dataset, truth = make_clinical_synth(args.seed)
        outdir = Path(args.out)
        with _reading(f"--out {outdir}"):
            outdir.mkdir(parents=True, exist_ok=True)
            dataset.write_csv(outdir / "cohort.csv")
            dataset.write_schema(outdir / "cohort.schema.json")
            truth.save(outdir / "truth_graph.json")
        print(f"wrote cohort.csv, cohort.schema.json, truth_graph.json to {outdir}")
        return 0

    with _reading("--data/--schema"):
        dataset = load_csv(args.data, args.schema)

    if args.command == "summarize":
        summary = summarize(dataset, None if args.no_outcome_split else dataset.outcome_column())
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    config = _build_config(args)
    ci_test = None
    if args.oracle_dag:
        with _reading(f"--oracle-dag {args.oracle_dag}"):
            ci_test = oracle_ci_test(MixedGraph.load(args.oracle_dag))
    outdir = args.out

    if args.command == "step1":
        result = step1_per_category(dataset, config, ci_test)
        with _reading(f"--out {outdir}"):
            write_step1(result, outdir)
        print(f"selected features: {', '.join(result.selected_features)}")
        return 0

    if args.command == "step2":
        selected = _features_arg(args, "from_step1", "selected_features")
        result = step2_integrated(dataset, selected, config, ci_test)
        with _reading(f"--out {outdir}"):
            write_step2(result, outdir, dataset)
        print(f"tree features: {', '.join(result.tree_features)}")
        return 0

    if args.command == "step3":
        feats = _features_arg(args, "from_step2", "tree_features")
        result = step3_predictive(dataset, feats, config)
        with _reading(f"--out {outdir}"):
            write_step3(result, outdir)
        acc = result.cv_metrics.accuracy
        print(f"causal-feature CV accuracy: {acc:.3f} over {result.n_rows} rows")
        return 0

    report = run_full(dataset, config, ci_test)  # the "run" command
    with _reading(f"--out {outdir}"):
        write_report(report, outdir, dataset)
    print(f"report written to {outdir}")
    return 0


def _features_arg(args: argparse.Namespace, from_key: str, json_field: str) -> list[str]:
    if args.features:
        return [f.strip() for f in args.features.split(",") if f.strip()]
    source = getattr(args, from_key, None)
    if source:
        with _reading(f"--{from_key.replace('_', '-')} {source}"):
            payload = json.loads(Path(source).read_text(encoding="utf-8"))
            names = payload.get(json_field) if isinstance(payload, dict) else None
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ValueError(f"expected a JSON object with a {json_field!r} list of column names")
        return names
    raise CausalTabError("provide --features or the previous step's JSON output")


if __name__ == "__main__":
    sys.exit(main())
