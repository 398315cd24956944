import json
import math

import numpy as np
import pytest

from causaltab.data import (
    ColumnSchema,
    Dataset,
    complete_cases,
    load_csv,
    load_schema,
    standardize,
    summarize,
)
from causaltab.errors import (
    BadCellError,
    SchemaMismatchError,
    UnknownColumnError,
    ZeroVarianceError,
)

from oracles import complete_rows_scan


def write_cohort(tmp_path, rows, header="AGE,COPD,OUTCOME"):
    csv_path = tmp_path / "cohort.csv"
    csv_path.write_text("\n".join([header, *rows]) + "\n")
    schema_path = tmp_path / "cohort.schema.json"
    schema_path.write_text(
        """
        [
          {"name": "AGE", "kind": "continuous", "category": "demographic", "units": "years"},
          {"name": "COPD", "kind": "binary", "category": "respiratory", "levels": ["0", "1"]},
          {"name": "OUTCOME", "kind": "binary", "category": "outcome", "levels": ["0", "1"]}
        ]
        """
    )
    return csv_path, schema_path


class TestSchema:
    def test_binary_needs_two_levels(self):
        with pytest.raises(SchemaMismatchError):
            ColumnSchema("X", "binary", "c", levels=("0",))

    def test_ordinal_needs_two_plus(self):
        with pytest.raises(SchemaMismatchError):
            ColumnSchema("X", "ordinal", "c", levels=("only",))

    def test_continuous_rejects_levels(self):
        with pytest.raises(SchemaMismatchError):
            ColumnSchema("X", "continuous", "c", levels=("0", "1"))

    def test_levels_normalized_from_ints(self):
        col = ColumnSchema("X", "binary", "c", levels=(0, 1))
        assert col.levels == ("0", "1")
        assert col.levels.index("1") == 1
        assert col.label_of(0.0) == "0"


class TestLoadCsv:
    def test_round_trip(self, tmp_path):
        csv_path, schema_path = write_cohort(
            tmp_path, ["63.5,0,1", "71.0,1,0", "55.2,0,1"]
        )
        ds = load_csv(csv_path, schema_path)
        assert ds.n_rows == 3
        assert len(ds.column_names) == 3
        assert ds.outcome_column() == "OUTCOME"
        np.testing.assert_allclose(ds.coded("AGE"), [63.5, 71.0, 55.2])

    def test_bad_binary_cell_names_row_and_column(self, tmp_path):
        csv_path, schema_path = write_cohort(tmp_path, ["60,0,1", "61,2,0"])
        with pytest.raises(BadCellError) as err:
            load_csv(csv_path, schema_path)
        assert err.value.row == 2
        assert err.value.column == "COPD"

    def test_empty_and_na_cells_are_missing(self, tmp_path):
        csv_path, schema_path = write_cohort(tmp_path, ["60,,1", "NA,1,0"])
        ds = load_csv(csv_path, schema_path)
        assert math.isnan(ds.coded("COPD")[0])
        assert math.isnan(ds.coded("AGE")[1])
        assert ds.missing_count("COPD") == 1

    def test_header_mismatch(self, tmp_path):
        csv_path, schema_path = write_cohort(
            tmp_path, ["1,2,3"], header="AGE,SMOKE,OUTCOME"
        )
        with pytest.raises(SchemaMismatchError):
            load_csv(csv_path, schema_path)

    def test_garbage_continuous_cell(self, tmp_path):
        csv_path, schema_path = write_cohort(tmp_path, ["sixty,0,1"])
        with pytest.raises(BadCellError):
            load_csv(csv_path, schema_path)

    def test_write_read_round_trip(self, tmp_path):
        csv_path, schema_path = write_cohort(tmp_path, ["60,0,1", ",1,0"])
        ds = load_csv(csv_path, schema_path)
        out_csv = tmp_path / "out.csv"
        out_schema = tmp_path / "out.schema.json"
        ds.write_csv(out_csv)
        ds.write_schema(out_schema)
        again = load_csv(out_csv, out_schema)
        for name in ds.column_names:
            np.testing.assert_array_equal(
                ds.coded(name), again.coded(name)
            )


class TestCompleteCases:
    def make(self):
        schema = [
            ColumnSchema("A", "continuous", "c1"),
            ColumnSchema("B", "continuous", "c1"),
            ColumnSchema("O", "binary", "outcome", levels=("0", "1")),
        ]
        cols = {
            "A": np.array([1.0, np.nan, 3.0, 4.0, 5.0]),
            "B": np.array([1.0, 2.0, np.nan, 4.0, 5.0]),
            "O": np.array([0.0, 1.0, 0.0, 1.0, 0.0]),
        }
        return Dataset(schema, cols)

    def test_single_column_filter(self):
        view = complete_cases(self.make(), ["A"])
        assert view.n_rows == 4
        assert list(view.rows) == [0, 2, 3, 4]

    def test_empty_columns_keeps_all_rows(self):
        view = complete_cases(self.make(), [])
        assert view.n_rows == 5

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            complete_cases(self.make(), ["NOPE"])

    def test_matches_per_row_scan_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            names = ["A", "B", "C"]
            raw = {}
            coded = {}
            for name in names:
                vals = rng.normal(size=n)
                mask = rng.random(n) < 0.25
                raw[name] = [None if m else float(v) for v, m in zip(vals, mask)]
                coded[name] = np.where(mask, np.nan, vals)
            schema = [ColumnSchema(nm, "continuous", "c") for nm in names]
            ds = Dataset(schema, coded)
            view = complete_cases(ds, names)
            assert list(view.rows) == complete_rows_scan(raw)

    def test_idempotent(self):
        ds = self.make()
        once = complete_cases(ds, ["A", "B"])
        assert once.is_complete()
        twice = complete_cases(once.source, once.columns)
        assert list(once.rows) == list(twice.rows)
        assert once.columns == twice.columns


class TestStandardize:
    def test_symmetric_column(self):
        schema = [ColumnSchema("X", "continuous", "c")]
        ds = Dataset(schema, {"X": np.array([1.0, 2.0, 3.0])})
        std = standardize(ds.view())
        np.testing.assert_allclose(std.matrix[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_raises(self):
        schema = [ColumnSchema("X", "continuous", "c")]
        ds = Dataset(schema, {"X": np.array([5.0, 5.0, 5.0])})
        with pytest.raises(ZeroVarianceError) as err:
            standardize(ds.view())
        assert "X" in str(err.value)

    def test_moments_recomputed_independently(self):
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(50, 4)) * [1.0, 10.0, 0.1, 3.0] + [5, -2, 0, 100]
        schema = [ColumnSchema(f"c{i}", "continuous", "c") for i in range(4)]
        ds = Dataset(schema, {f"c{i}": mat[:, i] for i in range(4)})
        std = standardize(ds.view())
        for j in range(4):
            col = std.matrix[:, j]
            assert abs(col.sum() / 50) < 1e-12
            assert abs(math.sqrt((col - col.mean()) @ (col - col.mean()) / 49) - 1) < 1e-12


class TestSummarize:
    def test_normal_cohort_mean(self):
        rng = np.random.default_rng(3)
        n = 500
        age = 66.6 + 15.9 * rng.standard_normal(n)
        out = (rng.random(n) < 0.73).astype(float)
        schema = [
            ColumnSchema("AGE", "continuous", "demographic"),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
        ]
        ds = Dataset(schema, {"AGE": age, "OUTCOME": out})
        summary = summarize(ds)
        row = next(r for r in summary["columns"] if r["name"] == "AGE")
        assert abs(row["mean"] - 66.6) < 3 * 15.9 / math.sqrt(n)

    def test_all_missing_column_counts(self):
        schema = [
            ColumnSchema("X", "continuous", "c"),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
        ]
        ds = Dataset(
            schema,
            {"X": np.full(5, np.nan), "OUTCOME": np.array([0.0, 1, 0, 1, 1])},
        )
        row = next(r for r in summarize(ds)["columns"] if r["name"] == "X")
        assert row["counts_by_class"] == [0, 0]

    def test_binary_counts_per_class(self):
        schema = [
            ColumnSchema("X", "binary", "c", levels=("0", "1")),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
        ]
        out = np.array([0.0] * 10 + [1.0] * 20)
        ds = Dataset(schema, {"X": np.ones(30), "OUTCOME": out})
        row = next(r for r in summarize(ds)["columns"] if r["name"] == "X")
        assert row["counts_by_class"] == [10, 20]
        assert row["level_counts"] == {"0": 0, "1": 30}

    def test_class_counts_sum_to_total(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=40)
        vals[rng.random(40) < 0.3] = np.nan
        schema = [
            ColumnSchema("X", "continuous", "c"),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
        ]
        ds = Dataset(
            schema, {"X": vals, "OUTCOME": (rng.random(40) < 0.5).astype(float)}
        )
        row = next(r for r in summarize(ds)["columns"] if r["name"] == "X")
        assert sum(row["counts_by_class"]) == row["total_nonmissing"]

    def test_json_is_serializable(self):
        schema = [
            ColumnSchema("X", "continuous", "c"),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
        ]
        ds = Dataset(schema, {"X": np.arange(4.0), "OUTCOME": np.array([0.0, 1, 0, 1])})
        text = json.dumps(summarize(ds), indent=2, sort_keys=True)
        assert '"AGE"' not in text
        assert '"columns"' in text


def test_schema_file_with_columns_wrapper(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        '{"columns": [{"name": "X", "kind": "continuous", "category": "c"}]}'
    )
    cols = load_schema(path)
    assert cols[0].name == "X"


def test_two_outcome_columns_rejected():
    schema = [
        ColumnSchema("A", "binary", "outcome", levels=("0", "1")),
        ColumnSchema("B", "binary", "outcome", levels=("0", "1")),
    ]
    with pytest.raises(SchemaMismatchError):
        Dataset(schema, {"A": np.zeros(2), "B": np.zeros(2)})
