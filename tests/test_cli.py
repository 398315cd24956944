import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causaltab
from causaltab.cli import main
from causaltab.data import ColumnSchema, Dataset, load_csv
from causaltab.synth import make_clinical_synth


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--seed", "1", "--out", str(out)]) == 0
    return out


def test_synth_writes_cohort_files(cohort_dir):
    assert (cohort_dir / "cohort.csv").exists()
    assert (cohort_dir / "cohort.schema.json").exists()
    assert (cohort_dir / "truth_graph.json").exists()


def test_summarize_prints_json(cohort_dir, capsys):
    main([
        "summarize",
        "--data", str(cohort_dir / "cohort.csv"),
        "--schema", str(cohort_dir / "cohort.schema.json"),
    ])
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "OUTCOME"
    names = {c["name"] for c in payload["columns"]}
    assert {"AGE", "PF", "BUN"} <= names


def test_step1_then_step2_then_step3(cohort_dir, tmp_path, capsys):
    out1 = tmp_path / "s1"
    main([
        "step1",
        "--data", str(cohort_dir / "cohort.csv"),
        "--schema", str(cohort_dir / "cohort.schema.json"),
        "--seed", "1",
        "--out", str(out1),
    ])
    step1 = json.loads((out1 / "step1.json").read_text())
    assert "AGE" in step1["selected_features"]

    out2 = tmp_path / "s2"
    main([
        "step2",
        "--data", str(cohort_dir / "cohort.csv"),
        "--schema", str(cohort_dir / "cohort.schema.json"),
        "--from-step1", str(out1 / "step1.json"),
        "--seed", "1",
        "--out", str(out2),
    ])
    step2 = json.loads((out2 / "step2.json").read_text())
    assert step2["tree_features"]
    assert (out2 / "tree.dot").exists()

    out3 = tmp_path / "s3"
    main([
        "step3",
        "--data", str(cohort_dir / "cohort.csv"),
        "--schema", str(cohort_dir / "cohort.schema.json"),
        "--from-step2", str(out2 / "step2.json"),
        "--permutation-trials", "10",
        "--seed", "1",
        "--out", str(out3),
    ])
    step3 = json.loads((out3 / "step3.json").read_text())
    assert step3["permutation"]["n_trials"] == 10


def test_full_run_with_config_file_and_flag_override(cohort_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"permutation_trials": 500, "seed": 9}))
    out = tmp_path / "run"
    main([
        "run",
        "--data", str(cohort_dir / "cohort.csv"),
        "--schema", str(cohort_dir / "cohort.schema.json"),
        "--config", str(config),
        "--permutation-trials", "8",  # flag overrides the config file
        "--out", str(out),
    ])
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["permutation_trials"] == 8
    assert report["config"]["seed"] == 9
    assert (out / "integrated.dot").exists()


def test_oracle_dag_mode(cohort_dir, tmp_path):
    out = tmp_path / "oracle"
    main([
        "step1",
        "--data", str(cohort_dir / "cohort.csv"),
        "--schema", str(cohort_dir / "cohort.schema.json"),
        "--oracle-dag", str(cohort_dir / "truth_graph.json"),
        "--out", str(out),
    ])
    step1 = json.loads((out / "step1.json").read_text())
    _, truth = make_clinical_synth(1)
    assert set(step1["selected_features"]) == set(truth.nodes) - {"OUTCOME"}


def _data_args(cohort_dir):
    return [
        "--data", str(cohort_dir / "cohort.csv"),
        "--schema", str(cohort_dir / "cohort.schema.json"),
    ]


def test_step_commands_write_the_same_files_as_run(cohort_dir, tmp_path):
    config = ["--seed", "1", "--permutation-trials", "10"]
    run = tmp_path / "run"
    assert main(["run", *_data_args(cohort_dir), *config, "--out", str(run)]) == 0
    steps = tmp_path / "steps"
    assert main(["step1", *_data_args(cohort_dir), *config, "--out", str(steps)]) == 0
    assert main([
        "step2", *_data_args(cohort_dir), *config,
        "--from-step1", str(steps / "step1.json"), "--out", str(steps),
    ]) == 0
    assert main([
        "step3", *_data_args(cohort_dir), *config,
        "--from-step2", str(steps / "step2.json"), "--out", str(steps),
    ]) == 0

    shared = sorted(p.name for p in run.iterdir() if p.name != "report.json")
    assert "integrated.dot" in shared and "permutation_histogram.csv" in shared
    for name in shared:
        assert (steps / name).read_bytes() == (run / name).read_bytes(), name
    report = json.loads((run / "report.json").read_text())
    for step in ("step1", "step2", "step3"):
        assert json.loads((steps / f"{step}.json").read_text()) == report[step]


def test_possible_dsep_flag_turns_the_stage_on(cohort_dir, tmp_path):
    out = tmp_path / "pdsep"
    args = ["run", *_data_args(cohort_dir), "--permutation-trials", "0", "--out", str(out)]
    assert main([*args, "--possible-dsep"]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["do_possible_dsep"] is True


def test_config_file_with_unknown_key_exits_nonzero(cohort_dir, tmp_path, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"alpah": 0.5}))
    argv = ["run", *_data_args(cohort_dir), "--config", str(config), "--out", str(tmp_path / "x")]
    assert "alpah" in _one_line_error(capsys, argv)


def _one_line_error(capsys, argv):
    """Run ``main`` in-process; it must return 1 and print one ``causaltab:`` line."""
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.startswith("causaltab: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("flag", ["--config", "--prior", "--oracle-dag"])
def test_missing_input_file_is_one_line_error(cohort_dir, tmp_path, capsys, flag):
    missing = tmp_path / "nowhere.json"
    argv = ["run", *_data_args(cohort_dir), flag, str(missing), "--out", str(tmp_path / "x")]
    assert str(missing) in _one_line_error(capsys, argv)
    assert not (tmp_path / "x").exists()


def test_missing_data_file_is_one_line_error(cohort_dir, tmp_path, capsys):
    missing = tmp_path / "nowhere.csv"
    argv = ["run", "--data", str(missing), "--schema", str(cohort_dir / "cohort.schema.json"),
            "--out", str(tmp_path / "x")]
    assert str(missing) in _one_line_error(capsys, argv)


def test_malformed_config_json_is_one_line_error(cohort_dir, tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{alpha: 0.5")
    argv = ["run", *_data_args(cohort_dir), "--config", str(config), "--out", str(tmp_path / "x")]
    assert str(config) in _one_line_error(capsys, argv)


def test_missing_features_is_one_line_error(cohort_dir, tmp_path, capsys):
    argv = ["step2", *_data_args(cohort_dir), "--out", str(tmp_path / "x")]
    assert "--features" in _one_line_error(capsys, argv)


@pytest.mark.parametrize(
    "command, features, message",
    [
        ("step2", "AGE,AGE,COPD,PF", "the feature list repeats the column 'AGE'"),
        ("step2", "AGE,OUTCOME", "the feature list names the outcome 'OUTCOME'"),
        ("step3", "AGE,AGE", "the feature list repeats the column 'AGE'"),
        ("step3", "AGE,OUTCOME", "the feature list names the outcome 'OUTCOME'"),
    ],
)
def test_feature_list_repeating_a_column_or_naming_the_outcome_is_one_line_error(
    cohort_dir, tmp_path, capsys, command, features, message
):
    argv = [command, *_data_args(cohort_dir), "--features", features,
            "--permutation-trials", "3", "--out", str(tmp_path / "x")]
    assert _one_line_error(capsys, argv) == f"causaltab: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--alpha", "2"),
        ("--max-cond-size", "-1"),
        ("--tree-max-depth", "0"),
        ("--cv-folds", "1"),
        ("--permutation-features", "0"),
        ("--permutation-features", "-1"),
        ("--min-rows", "-3"),
        ("--max-missing", "0"),
        ("--seed", "-1"),
        ("--permutation-trials", "-3"),
    ],
)
def test_bad_config_value_fails_before_any_step(cohort_dir, tmp_path, capsys, flag, value):
    argv = ["run", *_data_args(cohort_dir), flag, value, "--out", str(tmp_path / "x")]
    field = flag.removeprefix("--").replace("-", "_")
    assert field in _one_line_error(capsys, argv)
    assert not (tmp_path / "x").exists()


def test_permutation_features_beyond_the_pool_is_one_line_error(cohort_dir, tmp_path, capsys):
    # the seed-1 cohort's permutation pool holds its 44 features
    argv = ["run", *_data_args(cohort_dir), "--permutation-features", "45",
            "--permutation-trials", "5", "--out", str(tmp_path / "x")]
    assert "pool of 44 cannot supply 45 features" in _one_line_error(capsys, argv)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command, flag, payload, field",
    [
        ("run", "--config", {"alpha": "x"}, "alpha"),
        ("run", "--config", [1, 2], "JSON object"),
        ("step2", "--from-step1", {"tree_features": ["AGE"]}, "selected_features"),
        ("run", "--oracle-dag", {"nodes": 3}, "nodes"),
        ("run", "--schema", [1], "column 1"),
        ("run", "--schema", [], "array of columns"),
        ("run", "--prior", {"forbidden": 3}, "forbidden"),
        ("run", "--prior", {"forbiden": [["AGE", "PF"]]}, "forbiden"),
        ("run", "--prior", {"forbidden": [["AGE", "AGE"]]}, "distinct"),
        ("run", "--oracle-dag",
         {"nodes": ["AGE", "PF"], "edges": [{"u": "AGE", "v": "PF", "mark_u": "x"}]},
         "invalid marks"),
        ("step3", "--from-step2", {"tree_features": 5}, "tree_features"),
    ],
    ids=[
        "config-alpha-not-a-number",
        "config-not-an-object",
        "step1-without-selected-features",
        "oracle-dag-nodes-not-a-list",
        "schema-column-not-an-object",
        "schema-without-columns",
        "prior-forbidden-not-a-list",
        "prior-unknown-key",
        "prior-pair-of-one-column",
        "oracle-dag-invalid-mark",
        "step2-tree-features-not-a-list",
    ],
)
def test_input_file_of_the_wrong_shape_is_one_line_error(
    cohort_dir, tmp_path, capsys, command, flag, payload, field
):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    data = ["--data", str(cohort_dir / "cohort.csv"), "--schema", str(cohort_dir / "cohort.schema.json")]
    if flag == "--schema":
        data[-1] = str(path)
    else:
        data += [flag, str(path)]
    err = _one_line_error(capsys, [command, *data, "--out", str(tmp_path / "x")])
    assert field in err
    assert not (tmp_path / "x").exists()


def _step3_without_tree_features(cohort_dir, tmp_path):
    """``causaltab step3`` on a step-2 tree with no feature, in a fresh interpreter."""
    step2 = tmp_path / "step2.json"
    step2.write_text(json.dumps({"tree_features": []}))
    src = str(Path(causaltab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "causaltab.cli", "step3", *_data_args(cohort_dir),
         "--from-step2", str(step2), "--permutation-trials", "3", "--out", str(tmp_path / "s3")],
        capture_output=True, text=True, env=env,
    )


def test_step3_from_a_step2_tree_without_features_exits_nonzero(cohort_dir, tmp_path):
    proc = _step3_without_tree_features(cohort_dir, tmp_path)
    assert proc.returncode != 0
    assert "the step-2 tree uses no feature" in proc.stderr
    assert not (tmp_path / "s3" / "step3.json").exists()


def test_step_error_exits_with_one_line_message(cohort_dir, tmp_path):
    proc = _step3_without_tree_features(cohort_dir, tmp_path)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["causaltab: the step-2 tree uses no feature"]


def test_run_with_no_selected_feature_writes_step1_report(tmp_path):
    # seeded noise: no feature lies within two hops of the outcome
    rng = np.random.default_rng(0)
    schema = [
        ColumnSchema("LAB_A", "continuous", "labs"),
        ColumnSchema("LAB_B", "continuous", "labs"),
        ColumnSchema("HIST", "binary", "history", levels=("0", "1")),
        ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
    ]
    coded = {
        "LAB_A": rng.normal(size=200),
        "LAB_B": rng.normal(size=200),
        "HIST": rng.integers(0, 2, size=200).astype(float),
        "OUTCOME": rng.integers(0, 2, size=200).astype(float),
    }
    ds = Dataset(schema, coded)
    ds.write_csv(tmp_path / "noise.csv")
    ds.write_schema(tmp_path / "noise.schema.json")
    out = tmp_path / "out"
    assert main([
        "run",
        "--data", str(tmp_path / "noise.csv"),
        "--schema", str(tmp_path / "noise.schema.json"),
        "--out", str(out),
    ]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert set(payload) == {"config", "outcome", "summary", "step1"}
    assert payload["step1"]["selected_features"] == []
    assert sorted(p.name for p in out.iterdir()) == [
        "category_history.dot", "category_labs.dot", "report.json"
    ]


PATHOLOGIES = (
    "binary-with-one-positive",
    "all-missing-column",
    "category-of-30-complete-rows",
    "category-of-three-noise-columns",
    "unobserved-ordinal-level",
    "integer-lab-with-heavy-ties",
    "derived-comorbidity-count",
    "category-of-constants",
    "copy-of-bun-in-its-own-category",
    "affine-copy-of-age",
    "copy-of-outcome",
    "ordinal-outcome-with-a-third-code",
    "category-below-min-rows",
    "ordinal-outcome-without-code-0",
    "continuous-outcome",
)


def _pathology_table(ds: Dataset, name: str) -> Dataset:
    """The cohort with one pathology; a column named OUTCOME replaces the outcome.

    A Dataset refuses a continuous outcome, so ``_write_pathology`` declares
    that one in the schema file only.
    """
    n = ds.n_rows
    rng = np.random.default_rng(0)

    def binary(col, category):
        return ColumnSchema(col, "binary", category, levels=("0", "1"))

    def continuous(col, category):
        return ColumnSchema(col, "continuous", category)

    def observed(rows):  # noise observed on the first ``rows`` rows only
        return np.where(np.arange(n) < rows, rng.standard_normal(n), np.nan)

    outcome = ds.coded("OUTCOME").copy()
    outcome[np.flatnonzero(outcome == 1)[:20]] = 2
    prior_diseases = [c.name for c in ds.schema if c.category == "prior_diseases"]
    added = {
        "binary-with-one-positive": [(binary("RARE", "prior_diseases"), np.arange(n) == 0)],
        "all-missing-column": [(continuous("UNMEASURED", "blood"), np.full(n, np.nan))],
        "category-of-30-complete-rows": [
            (continuous(f"R{i}", "research"), observed(30)) for i in range(2)
        ],
        "category-of-three-noise-columns": [
            (continuous(f"NOISE{i}", "noise"), rng.standard_normal(n)) for i in range(3)
        ],
        "unobserved-ordinal-level": [
            (ColumnSchema("STAGE", "ordinal", "symptoms", levels=("0", "1", "2", "3")),
             rng.integers(0, 3, n)),
        ],
        "integer-lab-with-heavy-ties": [(continuous("TIES", "blood"), rng.integers(0, 3, n))],
        "derived-comorbidity-count": [
            (continuous("COMORBIDITIES", "prior_diseases"), sum(ds.coded(c) for c in prior_diseases)),
        ],
        "category-of-constants": [(binary("NEW_DRUG", "trial_drug"), np.zeros(n))],
        "copy-of-bun-in-its-own-category": [(continuous("BUN_COPY", "copies"), ds.coded("BUN"))],
        "affine-copy-of-age": [(continuous("AGE_MONTHS", "demographic"), 12 * ds.coded("AGE") + 6)],
        "copy-of-outcome": [(binary("OUTCOME_COPY", "symptoms"), ds.coded("OUTCOME"))],
        "ordinal-outcome-with-a-third-code": [
            (ColumnSchema("OUTCOME", "ordinal", "outcome", levels=("0", "1", "2")), outcome),
        ],
        "category-below-min-rows": [(continuous(f"S{i}", "small"), observed(15)) for i in range(2)],
        "ordinal-outcome-without-code-0": [
            (ColumnSchema("OUTCOME", "ordinal", "outcome", levels=("0", "1", "2")),
             ds.coded("OUTCOME") + 1),
        ],
        "continuous-outcome": [],
    }[name]
    schema = {c.name: c for c in ds.schema}
    coded = {c.name: ds.coded(c.name) for c in ds.schema}
    for column, values in added:
        schema[column.name] = column
        coded[column.name] = values
    return Dataset(list(schema.values()), coded)


def _write_pathology(cohort_dir: Path, tmp_path: Path, name: str) -> list[str]:
    """Write the cohort with one pathology; returns its ``--data`` and ``--schema`` arguments."""
    ds = _pathology_table(
        load_csv(cohort_dir / "cohort.csv", cohort_dir / "cohort.schema.json"), name
    )
    csv_path, schema_path = tmp_path / "table.csv", tmp_path / "table.schema.json"
    ds.write_csv(csv_path)
    ds.write_schema(schema_path)
    if name == "continuous-outcome":
        schema = json.loads(schema_path.read_text())
        for col in schema:
            if col["name"] == "OUTCOME":
                col["kind"] = "continuous"
                del col["levels"]
        schema_path.write_text(json.dumps(schema))
    return ["--data", str(csv_path), "--schema", str(schema_path)]


@pytest.mark.parametrize("pathology", PATHOLOGIES)
def test_pathology_gives_a_report_or_one_line_error(cohort_dir, tmp_path, capsys, pathology):
    out = tmp_path / "out"
    status = main([
        "run", *_write_pathology(cohort_dir, tmp_path, pathology),
        "--seed", "1", "--permutation-trials", "5", "--out", str(out),
    ])
    err = capsys.readouterr().err
    if status == 0:
        assert (out / "report.json").is_file()
    else:
        assert status == 1
        assert err.startswith("causaltab: ") and err.count("\n") == 1, err


def test_outcome_without_code_0_writes_step1_report(cohort_dir, tmp_path):
    # every row holds outcome code 1 or 2, so the tree's split (code 0
    # against every other code) leaves one class: every category is
    # skipped and step 2 has nothing to analyse
    out = tmp_path / "out"
    assert main([
        "run", *_write_pathology(cohort_dir, tmp_path, "ordinal-outcome-without-code-0"),
        "--seed", "1", "--permutation-trials", "3", "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"config", "outcome", "summary", "step1"}
    assert report["step1"] == {"per_category": [], "selected_features": []}


@pytest.mark.parametrize("command", ["summarize", "run"])
def test_continuous_outcome_column_is_one_line_error(cohort_dir, tmp_path, capsys, command):
    args = [command, *_write_pathology(cohort_dir, tmp_path, "continuous-outcome")]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "causaltab: outcome column 'OUTCOME' is continuous; it must be binary or ordinal\n"
    )


def test_continuous_outcome_override_fails_before_step1(cohort_dir, tmp_path, capsys, monkeypatch):
    import causaltab.pipeline

    def step1_per_category(*args):
        raise AssertionError("step 1 ran")

    monkeypatch.setattr(causaltab.pipeline, "step1_per_category", step1_per_category)
    out = tmp_path / "out"
    assert main(["run", *_data_args(cohort_dir), "--outcome", "AGE", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "causaltab: outcome 'AGE' is continuous; it must be binary or ordinal\n"
    assert not out.exists()


def test_outcome_override_splits_the_summary(cohort_dir, tmp_path):
    out = tmp_path / "out"
    assert main([
        "run", *_data_args(cohort_dir), "--outcome", "COPD",
        "--seed", "1", "--permutation-trials", "3", "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    summary = report["summary"]
    assert report["outcome"] == summary["outcome"] == "COPD"
    assert summary["outcome_levels"] == ["0", "1"]
    copd = next(c for c in summary["columns"] if c["name"] == "COPD")
    assert copd["counts_by_class"] == [copd["level_counts"]["0"], copd["level_counts"]["1"]]


def test_outcome_override_without_an_outcome_category_writes_a_report(cohort_dir, tmp_path):
    # the same analysis as with the schema's outcome category: only the
    # category that the summary lists for OUTCOME differs
    schema = json.loads((cohort_dir / "cohort.schema.json").read_text())
    for col in schema:
        if col["category"] == "outcome":
            col["category"] = "status"
    (tmp_path / "status.schema.json").write_text(json.dumps(schema))
    config = ["--outcome", "OUTCOME", "--seed", "1", "--permutation-trials", "3"]
    runs = {}
    for name, schema_path in [
        ("status", tmp_path / "status.schema.json"), ("outcome", cohort_dir / "cohort.schema.json")
    ]:
        out = tmp_path / name
        assert main([
            "run", "--data", str(cohort_dir / "cohort.csv"), "--schema", str(schema_path),
            *config, "--out", str(out),
        ]) == 0
        runs[name] = json.loads((out / "report.json").read_text())
    status, outcome = runs["status"], runs["outcome"]
    assert status["summary"]["outcome"] == "OUTCOME" and "step3" in status
    row = next(c for c in status["summary"]["columns"] if c["name"] == "OUTCOME")
    assert row["category"] == "status"
    row["category"] = "outcome"
    assert status == outcome


def test_summarize_without_outcome_split(cohort_dir, capsys):
    assert main(["summarize", *_data_args(cohort_dir), "--no-outcome-split"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] is None and payload["outcome_levels"] is None
    assert all("counts_by_class" not in c for c in payload["columns"])


def test_synth_with_a_negative_seed_is_one_line_error(tmp_path, capsys):
    argv = ["synth", "--seed", "-1", "--out", str(tmp_path / "x")]
    assert _one_line_error(capsys, argv) == "causaltab: seed must be >= 0, got -1\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command, out",
    [("synth", "afile"), ("run", "afile"), ("step1", "afile/sub")],
)
def test_out_that_names_a_file_is_one_line_error(cohort_dir, tmp_path, capsys, command, out):
    (tmp_path / "afile").write_text("taken\n")
    out = str(tmp_path / out)
    args = [] if command == "synth" else [*_data_args(cohort_dir), "--permutation-trials", "3"]
    assert _one_line_error(capsys, [command, *args, "--out", out]).startswith(f"causaltab: --out {out}: ")
    assert (tmp_path / "afile").read_text() == "taken\n"
