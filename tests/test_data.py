import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from causaltab.data import (
    ColumnSchema,
    Dataset,
    complete_cases,
    load_csv,
    load_schema,
    summarize,
)
from causaltab.errors import (
    BadCellError,
    CausalTabError,
    NotCategoricalError,
    SchemaMismatchError,
    UnknownColumnError,
    ZeroVarianceError,
)

from oracles import complete_rows_scan, reference_load_csv


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

    def test_int_levels_are_written_as_labels(self, tmp_path):
        schema = [
            ColumnSchema("X", "ordinal", "c", levels=(0, 1, 2)),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=(0, 1)),
        ]
        coded = {"X": np.array([2.0, math.nan, 0.0]), "OUTCOME": np.array([1.0, 0.0, 1.0])}
        Dataset(schema, coded).write_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == b"X,OUTCOME\r\n2,1\r\n,0\r\n0,1\r\n"


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


#: a mixed schema whose labels need CSV quoting, shadow a missing token
#: ("NA") or carry surrounding whitespace (" pad")
MIXED_SCHEMA = [
    ColumnSchema("C1", "continuous", "labs"),
    ColumnSchema("B1", "binary", "history", levels=("no", "yes")),
    ColumnSchema("B2", "binary", "history", levels=("a,b", 'say "hi"')),
    ColumnSchema("C2", "continuous", "labs"),
    ColumnSchema("O1", "ordinal", "exam", levels=("NA", "low", "high")),
    ColumnSchema("O2", "ordinal", "exam", levels=(" pad", "pad", "x y")),
    ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 0.1, 1e300,
                  1.0000000000000002, 123456789.12345679]


def mixed_table(seed: int, n_rows: int = 300) -> Dataset:
    """Seeded codes for MIXED_SCHEMA: 17-digit and special floats, level ranks, NaN."""
    rng = np.random.default_rng(seed)
    coded = {}
    for col in MIXED_SCHEMA:
        if col.is_categorical:
            values = rng.integers(0, col.n_levels, n_rows).astype(float)
        else:
            values = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-5, 6, n_rows)
            special = rng.random(n_rows) < 0.2
            values[special] = rng.choice(SPECIAL_FLOATS, special.sum())
        if col.category != "outcome":
            values[rng.random(n_rows) < 0.1] = math.nan
        coded[col.name] = values
    return Dataset(MIXED_SCHEMA, coded)


def write_messy_csv(tmp_path, seed: int, n_rows: int = 300):
    """A CSV for MIXED_SCHEMA whose cells are padded, missing or spelled oddly."""
    rng = np.random.default_rng(seed)
    pads = ["{}", " {}", "{} ", "\t{} ", "  {}\t"]
    numbers = ["nan", "-nan", "inf", " -inf", "-0.0", "1e-320", "1_000", "+5", ".5", "1E5",
               "0.10000000000000001", "NA", " NA ", "", "  "]
    rows = []
    for _ in range(n_rows):
        row = []
        for col in MIXED_SCHEMA:
            if col.is_categorical:
                options = list(col.levels) + ["NA", "", " ", " NA"] * (col.category != "outcome")
                cell = options[rng.integers(len(options))]
            elif rng.random() < 0.3:
                cell = numbers[rng.integers(len(numbers))]
            else:
                cell = repr(float(rng.standard_normal() * 10.0 ** rng.integers(-5, 6)))
            row.append(pads[rng.integers(len(pads))].format(cell))
        rows.append(row)
    csv_path = tmp_path / f"messy{seed}.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in MIXED_SCHEMA])
        writer.writerows(rows)
    schema_path = tmp_path / "mixed.schema.json"
    Dataset(MIXED_SCHEMA, {c.name: np.zeros(1) for c in MIXED_SCHEMA}).write_schema(schema_path)
    return csv_path, schema_path


def assert_bit_identical(got: Dataset, want: Dataset):
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert got.coded(name).tobytes() == want.coded(name).tobytes(), name


class TestCsvMatchesRowWiseReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_written_table_loads_to_the_same_codes(self, tmp_path, seed):
        ds = mixed_table(seed)
        ds.write_csv(tmp_path / "t.csv")
        ds.write_schema(tmp_path / "t.schema.json")
        got = load_csv(tmp_path / "t.csv", tmp_path / "t.schema.json")
        assert_bit_identical(got, reference_load_csv(tmp_path / "t.csv", tmp_path / "t.schema.json"))
        assert np.isnan(got.coded("O1")[ds.coded("O1") == 0]).all()  # missing wins over level "NA"

    @pytest.mark.parametrize("seed", range(6))
    def test_messy_cells_load_to_the_same_codes(self, tmp_path, seed):
        paths = write_messy_csv(tmp_path, seed)
        assert_bit_identical(load_csv(*paths), reference_load_csv(*paths))

    @pytest.mark.parametrize(
        "header, rows",
        [
            ("AGE,COPD,OUTCOME", ["60,0,1", "61,2,0"]),  # bad level
            ("AGE,COPD,OUTCOME", ["60,0,1", "61, 7 ,0"]),  # bad level, padded
            ("AGE,COPD,OUTCOME", ["60,0,1", "sixty,0,1"]),  # not a number
            ("AGE,COPD,OUTCOME", ["60,0,1", " 6 0 ,0,1"]),  # not a number, padded
            ("AGE,COPD,OUTCOME", ["60,2,1", "61,0"]),  # short row after a bad cell
            ("AGE,COPD,OUTCOME", ["61,0", "60,2,1"]),  # bad cell after a short row
            ("AGE,COPD,OUTCOME", ["60,0,1", "61,0,1,5"]),  # long row
            ("AGE,COPD,OUTCOME", ["60,0,x", "y,0,1"]),  # first bad cell in row order
            ("OUTCOME,COPD,AGE", ["x,0,y"]),  # first bad cell in schema order
            ("AGE,COPD,OUTCOME", []),  # no data rows
            ("AGE,SMOKE,OUTCOME", ["1,2,3"]),  # header mismatch
            ("", []),  # empty file
        ],
    )
    def test_errors(self, tmp_path, header, rows):
        csv_path, schema_path = write_cohort(tmp_path, rows, header=header)
        if not header:
            csv_path.write_text("")
        with pytest.raises(CausalTabError) as want:
            reference_load_csv(csv_path, schema_path)
        with pytest.raises(type(want.value)) as got:
            load_csv(csv_path, schema_path)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "edit", ["byte-order mark", "empty line before the header", "empty line inside", "empty line at the end"]
)
def test_byte_order_mark_and_empty_lines_load_as_the_original(tmp_path, edit):
    ds = mixed_table(0)
    csv_path, schema_path = tmp_path / "t.csv", tmp_path / "t.schema.json"
    ds.write_csv(csv_path)
    ds.write_schema(schema_path)
    want = load_csv(csv_path, schema_path)
    lines = csv_path.read_bytes().splitlines(keepends=True)
    if edit == "byte-order mark":
        # Excel's "CSV UTF-8" export starts the file with one
        for path in (csv_path, schema_path):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    elif edit == "empty line before the header":
        csv_path.write_bytes(b"\n" + b"".join(lines))
    elif edit == "empty line inside":
        csv_path.write_bytes(b"".join([*lines[:5], b"\r\n", *lines[5:]]))
    else:
        csv_path.write_bytes(b"".join(lines) + b"\n")
    assert_bit_identical(load_csv(csv_path, schema_path), want)


def test_bad_cell_after_an_empty_line_names_its_file_row(tmp_path):
    csv_path, schema_path = write_cohort(tmp_path, ["60,0,1", "", "61,2,0"])
    with pytest.raises(BadCellError) as err:
        load_csv(csv_path, schema_path)
    assert (err.value.row, err.value.column) == (3, "COPD")


def test_unparsable_csv_line_is_a_schema_error(tmp_path):
    csv_path, schema_path = write_cohort(tmp_path, ["60,0,1", "61,0," + "9" * 200_000])
    with pytest.raises(SchemaMismatchError, match="line 3: field larger than field limit"):
        load_csv(csv_path, schema_path)


def test_load_csv_peak_memory_is_pinned(tmp_path):
    # the loader keeps 8-byte codes, not one float object per cell: its
    # traced peak stays within 3x the bytes of the arrays it returns
    rng = np.random.default_rng(7)
    schema, coded = [], {}
    for j in range(99):
        kind = ("continuous", "binary", "ordinal")[j % 3]
        levels = {"binary": ("0", "1"), "ordinal": ("0", "1", "2")}.get(kind)
        schema.append(ColumnSchema(f"F{j:02d}", kind, f"cat{j % 4}", levels=levels))
        values = rng.standard_normal(2000) if levels is None else rng.integers(0, len(levels), 2000) * 1.0
        values[rng.random(2000) < 0.02] = math.nan
        coded[schema[-1].name] = values
    schema.append(ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")))
    coded["OUTCOME"] = rng.integers(0, 2, 2000) * 1.0
    Dataset(schema, coded).write_csv(tmp_path / "wide.csv")
    Dataset(schema, coded).write_schema(tmp_path / "wide.schema.json")

    tracemalloc.start()
    try:
        ds = load_csv(tmp_path / "wide.csv", tmp_path / "wide.schema.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = sum(ds.coded(name).nbytes for name in ds.column_names)
    assert final == 2000 * 100 * 8
    assert peak <= 3 * final, f"peak {peak / final:.2f}x the loaded arrays"


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
        assert not np.isnan(once.matrix()).any()
        twice = complete_cases(once.source, once.columns)
        assert list(once.rows) == list(twice.rows)
        assert once.columns == twice.columns


class TestStandardize:
    def test_symmetric_column(self):
        schema = [ColumnSchema("X", "continuous", "c")]
        ds = Dataset(schema, {"X": np.array([1.0, 2.0, 3.0])})
        std = ds.view().standardized
        np.testing.assert_allclose(std[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_raises(self):
        schema = [ColumnSchema("X", "continuous", "c")]
        ds = Dataset(schema, {"X": np.array([5.0, 5.0, 5.0])})
        with pytest.raises(ZeroVarianceError) as err:
            ds.view().standardized
        assert "X" in str(err.value)

    def test_moments_recomputed_independently(self):
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(50, 4)) * [1.0, 10.0, 0.1, 3.0] + [5, -2, 0, 100]
        schema = [ColumnSchema(f"c{i}", "continuous", "c") for i in range(4)]
        ds = Dataset(schema, {f"c{i}": mat[:, i] for i in range(4)})
        std = ds.view().standardized
        for j in range(4):
            col = std[:, j]
            assert abs(col.sum() / 50) < 1e-12
            assert abs(math.sqrt((col - col.mean()) @ (col - col.mean()) / 49) - 1) < 1e-12

    def test_one_read_only_array_in_view_column_order(self):
        schema = [ColumnSchema("X", "continuous", "c"), ColumnSchema("Y", "continuous", "c")]
        ds = Dataset(schema, {"X": np.array([1.0, 2.0, 3.0]), "Y": np.array([10.0, 30.0, 20.0])})
        view = ds.view(["Y", "X"])
        std = view.standardized
        assert view.standardized is std
        np.testing.assert_allclose(std, [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            std[0, 0] = 0.0


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
        summary = summarize(ds, "OUTCOME")
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
        row = next(r for r in summarize(ds, "OUTCOME")["columns"] if r["name"] == "X")
        assert row["counts_by_class"] == [0, 0]

    def test_binary_counts_per_class(self):
        schema = [
            ColumnSchema("X", "binary", "c", levels=("0", "1")),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
        ]
        out = np.array([0.0] * 10 + [1.0] * 20)
        ds = Dataset(schema, {"X": np.ones(30), "OUTCOME": out})
        row = next(r for r in summarize(ds, "OUTCOME")["columns"] if r["name"] == "X")
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
        row = next(r for r in summarize(ds, "OUTCOME")["columns"] if r["name"] == "X")
        assert sum(row["counts_by_class"]) == row["total_nonmissing"]

    def test_json_is_serializable(self):
        schema = [
            ColumnSchema("X", "continuous", "c"),
            ColumnSchema("OUTCOME", "binary", "outcome", levels=("0", "1")),
        ]
        ds = Dataset(schema, {"X": np.arange(4.0), "OUTCOME": np.array([0.0, 1, 0, 1])})
        text = json.dumps(summarize(ds, "OUTCOME"), indent=2, sort_keys=True)
        assert '"AGE"' not in text
        assert '"columns"' in text

    def test_continuous_outcome_is_rejected(self):
        from causaltab.synth import make_clinical_synth

        ds = make_clinical_synth(1)[0]
        with pytest.raises(NotCategoricalError, match="column 'AGE' is continuous, not categorical"):
            summarize(ds, "AGE")


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


def test_continuous_outcome_column_rejected():
    schema = [
        ColumnSchema("A", "binary", "c", levels=("0", "1")),
        ColumnSchema("Y", "continuous", "outcome"),
    ]
    with pytest.raises(SchemaMismatchError, match="outcome column 'Y' is continuous"):
        Dataset(schema, {"A": np.zeros(2), "Y": np.zeros(2)})
