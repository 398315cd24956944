"""Mixed-type clinical tables: schema, loading, views, standardization.

A Dataset stores every column as a float array of *codes*: continuous
columns hold the raw value, binary/ordinal columns hold the index of the
cell's level in the declared level order, and missing cells hold NaN.
Views are index overlays and never copy cell data. ``DatasetView.matrix``
is the one missing-cell check of a view: it raises IncompleteViewError
naming each incomplete column it reads. The G^2 test keeps its own rule.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadCellError,
    IncompleteViewError,
    NotCategoricalError,
    SchemaMismatchError,
    UnknownColumnError,
    ZeroVarianceError,
)

KIND_BINARY = "binary"
KIND_ORDINAL = "ordinal"
KIND_CONTINUOUS = "continuous"
KINDS = (KIND_BINARY, KIND_ORDINAL, KIND_CONTINUOUS)

OUTCOME_CATEGORY = "outcome"

#: CSV tokens read as a missing cell. Anything else must parse per the column kind.
MISSING_TOKENS = ("", "NA")


def _normalize_level(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


@dataclass(frozen=True)
class ColumnSchema:
    """Declared name, kind, category and admissible levels of one column."""

    name: str
    kind: str
    category: str
    levels: tuple[str, ...] | None = None
    units: str = ""

    def __post_init__(self):
        if not self.name:
            raise SchemaMismatchError("column name must be non-empty")
        if self.kind not in KINDS:
            raise SchemaMismatchError(
                f"column {self.name!r}: kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not self.category:
            raise SchemaMismatchError(f"column {self.name!r}: category must be non-empty")
        if self.levels is not None:
            object.__setattr__(
                self, "levels", tuple(_normalize_level(v) for v in self.levels)
            )
        if self.kind == KIND_BINARY:
            if self.levels is None or len(self.levels) != 2:
                raise SchemaMismatchError(
                    f"binary column {self.name!r} must declare exactly 2 levels"
                )
        elif self.kind == KIND_ORDINAL:
            if self.levels is None or len(self.levels) < 2:
                raise SchemaMismatchError(
                    f"ordinal column {self.name!r} must declare >= 2 ordered levels"
                )
        else:
            if self.levels is not None:
                raise SchemaMismatchError(
                    f"continuous column {self.name!r} must not declare levels"
                )
        if self.levels is not None and len(set(self.levels)) != len(self.levels):
            raise SchemaMismatchError(f"column {self.name!r}: duplicate levels")

    @property
    def is_categorical(self) -> bool:
        return self.kind in (KIND_BINARY, KIND_ORDINAL)

    @property
    def n_levels(self) -> int:
        if self.levels is None:
            raise ValueError(f"continuous column {self.name!r} has no levels")
        return len(self.levels)

    def label_of(self, code: float) -> str:
        if self.is_categorical:
            return self.levels[int(code)]
        return repr(float(code))


class Dataset:
    """Immutable validated table of coded columns sharing one row count."""

    def __init__(self, schema: Sequence[ColumnSchema], coded: Mapping[str, np.ndarray]):
        self._schema = tuple(schema)
        names = [c.name for c in self._schema]
        if len(set(names)) != len(names):
            raise SchemaMismatchError("duplicate column names in schema")
        outcome_cols = [c for c in self._schema if c.category == OUTCOME_CATEGORY]
        if len(outcome_cols) > 1:
            raise SchemaMismatchError(f"multiple outcome columns: {[c.name for c in outcome_cols]}")
        if outcome_cols and not outcome_cols[0].is_categorical:
            raise SchemaMismatchError(
                f"outcome column {outcome_cols[0].name!r} is continuous; it must be binary or ordinal"
            )
        missing = [n for n in names if n not in coded]
        if missing:
            raise SchemaMismatchError(f"no data for columns: {missing}")

        self._by_name = {c.name: c for c in self._schema}
        self._index = {n: i for i, n in enumerate(names)}
        self._coded: dict[str, np.ndarray] = {}
        n_rows = None
        for col in self._schema:
            arr = np.asarray(coded[col.name], dtype=float).copy()
            if arr.ndim != 1:
                raise SchemaMismatchError(f"column {col.name!r} is not 1-dimensional")
            if n_rows is None:
                n_rows = arr.shape[0]
            elif arr.shape[0] != n_rows:
                raise SchemaMismatchError(
                    f"column {col.name!r} has {arr.shape[0]} rows, expected {n_rows}"
                )
            if col.is_categorical:
                vals = arr[~np.isnan(arr)]
                if vals.size and (
                    np.any(vals != np.floor(vals))
                    or vals.min() < 0
                    or vals.max() >= col.n_levels
                ):
                    raise BadCellError(-1, col.name, "<coded>", "code outside declared levels")
            arr.flags.writeable = False
            self._coded[col.name] = arr
        if not n_rows:
            raise SchemaMismatchError("dataset must have at least one row")
        self._n_rows = int(n_rows)

    # -- basic accessors ----------------------------------------------------

    @property
    def schema(self) -> tuple[ColumnSchema, ...]:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self._schema)

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownColumnError(f"unknown column {name!r}") from None

    def schema_for(self, name: str) -> ColumnSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownColumnError(f"unknown column {name!r}") from None

    def coded(self, name: str) -> np.ndarray:
        self.schema_for(name)
        return self._coded[name]

    def outcome_column(self) -> str:
        for col in self._schema:
            if col.category == OUTCOME_CATEGORY:
                return col.name
        raise UnknownColumnError("dataset declares no outcome column")

    def missing_count(self, name: str) -> int:
        return int(np.isnan(self.coded(name)).sum())

    def categories(self) -> tuple[str, ...]:
        """Feature categories in schema order, outcome excluded."""
        seen: dict[str, None] = {}
        for col in self._schema:
            if col.category != OUTCOME_CATEGORY:
                seen.setdefault(col.category, None)
        return tuple(seen)

    def view(self, columns: Sequence[str] | None = None) -> "DatasetView":
        cols = tuple(columns) if columns is not None else self.column_names
        for c in cols:
            self.schema_for(c)
        return DatasetView(self, cols, np.arange(self._n_rows))

    # -- persistence ---------------------------------------------------------

    def write_csv(self, path: str | Path) -> None:
        """Write a header row, then one row per record, in schema column order.

        A missing cell is written empty, a categorical cell as its level's
        label and a continuous one as the ``repr`` of its float, so
        ``load_csv`` reads the same codes back.
        """
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.column_names)
            cols = [self._coded[n] for n in self.column_names]
            schemas = [self._by_name[n] for n in self.column_names]
            for i in range(self._n_rows):
                row = []
                for arr, sch in zip(cols, schemas):
                    v = arr[i]
                    if math.isnan(v):
                        row.append("")
                    elif sch.is_categorical:
                        row.append(sch.label_of(v))
                    else:
                        row.append(repr(float(v)))
                writer.writerow(row)

    def write_schema(self, path: str | Path) -> None:
        payload = []
        for col in self._schema:
            entry = {"name": col.name, "kind": col.kind, "category": col.category}
            if col.levels is not None:
                entry["levels"] = list(col.levels)
            if col.units:
                entry["units"] = col.units
            payload.append(entry)
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class DatasetView:
    """Read-only index overlay selecting rows and columns of a Dataset.

    ``categorical_bitsets`` packs the view's complete categorical columns
    into per-level row bitsets once, on first use, for the G^2 tests that
    run on the view, and ``standardized`` standardizes the view once, for
    its Fisher-z tests and effect regressions.
    """

    source: Dataset
    columns: tuple[str, ...]
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.intp)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    def schema_for(self, name: str) -> ColumnSchema:
        return self.source.schema_for(name)

    def coded(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise UnknownColumnError(f"column {name!r} not selected in view")
        return self.source.coded(name)[self.rows]

    def matrix(self, columns: Sequence[str] | None = None) -> np.ndarray:
        """The view's cells of ``columns`` (default: all), one column each.

        It is the one missing-cell check of a view: IncompleteViewError
        names every requested column that has a missing cell.
        """
        cols = tuple(columns) if columns is not None else self.columns
        if not cols:
            return np.empty((self.n_rows, 0))
        mat = np.column_stack([self.coded(c) for c in cols])
        bad = [c for c, hole in zip(cols, np.isnan(mat).any(axis=0)) if hole]
        if bad:
            raise IncompleteViewError(f"missing cells in columns {bad}; take complete cases first")
        return mat

    @cached_property
    def categorical_bitsets(self) -> tuple[np.ndarray, dict[str, tuple[int, int]]]:
        """Packed row bitsets of the view's complete categorical columns.

        Row ``first + level`` of the read-only uint64 array holds one bit per
        view row, set where the row has that level of the column; the dict
        gives each column's ``(first, level count)``. Row 0 has every view
        row set and belongs to no column. Bits past the last view row are
        0, so popcounting an AND of rows counts view rows. Continuous
        columns and columns with a missing cell are left out.
        """
        masks = [np.ones((1, self.n_rows), dtype=bool)]
        columns: dict[str, tuple[int, int]] = {}
        first = 1
        for name in self.columns:
            sch = self.schema_for(name)
            if not sch.is_categorical:
                continue
            arr = self.coded(name)
            if np.isnan(arr).any():
                continue
            masks.append(arr == np.arange(sch.n_levels)[:, None])
            columns[name] = (first, sch.n_levels)
            first += sch.n_levels
        packed = np.packbits(np.concatenate(masks), axis=1, bitorder="little")
        words = np.zeros((first, -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        words = words.view(np.uint64)
        words.flags.writeable = False
        return words, columns

    @cached_property
    def standardized(self) -> np.ndarray:
        """Read-only ``matrix()`` with each column at mean 0 and sd 1 (n-1 denominator).

        IncompleteViewError on a missing cell, ZeroVarianceError on < 2 rows or a constant column.
        """
        mat = self.matrix()
        if mat.shape[0] < 2:
            raise ZeroVarianceError("need at least 2 rows to standardize")
        means = mat.mean(axis=0)
        sds = mat.std(axis=0, ddof=1)
        for j, c in enumerate(self.columns):
            if sds[j] == 0.0:
                raise ZeroVarianceError(f"column {c!r} is constant in this view")
        std = (mat - means) / sds
        std.flags.writeable = False
        return std


def complete_cases(dataset: Dataset, columns: Sequence[str]) -> DatasetView:
    """View of the rows with no missing cell among ``columns``, order preserved."""
    cols = tuple(columns)
    keep = np.ones(dataset.n_rows, dtype=bool)
    for c in cols:
        keep &= ~np.isnan(dataset.coded(c))
    return DatasetView(dataset, cols, np.nonzero(keep)[0])


def summarize(dataset: Dataset, outcome: str | None) -> dict:
    """Per-column occurrence counts (per outcome class) plus moments/level counts.

    Returns the report's ``summary`` section: the outcome, its levels, and
    one dict per column. ``outcome`` is the analysed outcome, a binary or
    ordinal column, whose levels each get a ``counts_by_class`` entry; with
    None the summary is not split by outcome. A continuous ``outcome``
    raises NotCategoricalError.
    """
    outcome_levels = None
    class_masks: list[np.ndarray] | None = None
    if outcome is not None:
        out_schema = dataset.schema_for(outcome)
        if not out_schema.is_categorical:
            raise NotCategoricalError(
                f"column {outcome!r} is {out_schema.kind}, not categorical"
            )
        out_codes = dataset.coded(outcome)
        outcome_levels = list(out_schema.levels)
        class_masks = [out_codes == k for k in range(out_schema.n_levels)]

    rows = []
    for col in dataset.schema:
        arr = dataset.coded(col.name)
        present = ~np.isnan(arr)
        row = {
            "name": col.name,
            "category": col.category,
            "kind": col.kind,
            "total_nonmissing": int(present.sum()),
        }
        if class_masks is not None:
            row["counts_by_class"] = [int((present & m).sum()) for m in class_masks]
        vals = arr[present]
        if col.kind == KIND_CONTINUOUS:
            if vals.size:
                row["mean"] = float(vals.mean())
                row["sd"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        else:
            row["level_counts"] = {
                lab: int((vals == k).sum()) for k, lab in enumerate(col.levels)
            }
        rows.append(row)
    return {"outcome": outcome, "outcome_levels": outcome_levels, "columns": rows}


# -- CSV + sidecar schema loading -------------------------------------------

#: JSON types of the fields of one schema column
_SCHEMA_FIELDS = {"name": str, "kind": str, "category": str, "levels": list, "units": str}
_REQUIRED_SCHEMA_FIELDS = ("name", "kind", "category")


def load_schema(path: str | Path) -> list[ColumnSchema]:
    """Parse a sidecar schema file: a JSON array of column declarations."""
    raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if isinstance(raw, dict) and "columns" in raw:
        raw = raw["columns"]
    if not isinstance(raw, list) or not raw:
        raise SchemaMismatchError(f"{path}: schema file must hold a JSON array of columns")
    out = []
    for i, entry in enumerate(raw, start=1):
        if not isinstance(entry, dict):
            raise SchemaMismatchError(f"{path}: column {i} must be a JSON object, got {entry!r}")
        for key, kind in _SCHEMA_FIELDS.items():
            value = entry.get(key)
            if (value is not None or key in _REQUIRED_SCHEMA_FIELDS) and not isinstance(value, kind):
                raise SchemaMismatchError(
                    f"{path}: column {i}: {key!r} must be a {kind.__name__}, got {value!r}"
                )
        out.append(
            ColumnSchema(
                name=entry["name"],
                kind=entry["kind"],
                category=entry["category"],
                levels=tuple(entry["levels"]) if entry.get("levels") is not None else None,
                units=entry.get("units", ""),
            )
        )
    return out


def load_csv(path: str | Path, schema_path: str | Path) -> Dataset:
    """Load and validate a CSV against its sidecar schema.

    Each cell is stripped of surrounding whitespace. One equal to one of
    MISSING_TOKENS becomes missing, even where a level has the same label;
    any other value that does not conform to the column kind/levels raises
    BadCellError naming the row and column rather than being coerced.
    Rows are checked in file order, each row's length before its cells.
    A leading byte-order mark and empty lines are skipped; row numbers in
    errors count the lines after the header, empty ones included.

    Each column's codes go straight into an ``array("d")`` of 8 bytes per
    cell, and the Dataset copies them once, so the loader's peak memory is
    about twice the table's coded bytes.
    """
    schema = load_schema(schema_path)
    want = [c.name for c in schema]
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _csv_rows(fh, path)
        header = next((row for row in reader if row), None)  # empty lines before it are skipped
        if header is None:
            raise SchemaMismatchError(f"{path}: empty CSV")
        if sorted(header) != sorted(want):
            extra = sorted(set(header) - set(want))
            absent = sorted(set(want) - set(header))
            raise SchemaMismatchError(
                f"{path}: header/schema disagree (unexpected {extra}, missing {absent})"
            )
        data = {name: array("d") for name in want}
        # one decoder per column, in schema order: a categorical cell is
        # looked up as its level rank (KeyError if undeclared), a continuous
        # one parsed as a float (ValueError if not a number)
        decoders = []
        for col in schema:
            if col.is_categorical:
                decode = {label: float(i) for i, label in enumerate(col.levels)}.__getitem__
            else:
                decode = float
            decoders.append((col, header.index(col.name), decode, data[col.name].append))
        for r, row in enumerate(reader, start=1):
            if not row:
                continue  # an empty line; a line of blanks or commas is a row
            if len(row) != len(header):
                raise SchemaMismatchError(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
            for col, pos, decode, append in decoders:
                cell = row[pos].strip()
                if cell in MISSING_TOKENS:
                    append(math.nan)
                    continue
                try:
                    append(decode(cell))
                except KeyError:
                    raise BadCellError(r, col.name, cell, f"not in levels {list(col.levels)}") from None
                except ValueError:
                    raise BadCellError(r, col.name, cell, "not a number") from None
    if not data[want[0]]:
        raise SchemaMismatchError(f"{path}: no data rows")
    # the Dataset copies each column out of its buffer
    return Dataset(schema, {k: np.frombuffer(v) for k, v in data.items()})


def _csv_rows(fh, path: str | Path):
    """Rows of a CSV file; a line the csv module cannot parse is a SchemaMismatchError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaMismatchError(f"{path}: line {reader.line_num}: {exc}") from None
