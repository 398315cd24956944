"""Exception types raised across the package.

Each class names the violated contract; messages carry the offending
column/node/value so callers can report actionable diagnostics.
"""


class CausalTabError(Exception):
    """Base class for all package errors."""


# --- tabular data ---------------------------------------------------------

class SchemaMismatchError(CausalTabError):
    """CSV header and schema file disagree."""


class BadCellError(CausalTabError):
    """A cell value violates its column's kind or admissible levels."""

    def __init__(self, row: int, column: str, value: str, reason: str = ""):
        self.row = row
        self.column = column
        self.value = value
        msg = f"bad cell at row {row}, column {column!r}: {value!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class UnknownColumnError(CausalTabError):
    """A referenced column name does not exist."""


class ZeroVarianceError(CausalTabError):
    """A column is constant where nonzero variance is required."""


class IncompleteViewError(CausalTabError):
    """An operation requiring complete cases saw missing cells."""


# --- statistical tests ----------------------------------------------------

class DomainError(CausalTabError):
    """Argument outside a distribution function's domain."""


class SampleTooSmallError(CausalTabError):
    """Too few observations for the requested conditioning set."""


class SingularCorrelationError(CausalTabError):
    """Correlation submatrix is singular (collinear conditioning set)."""


class NotCategoricalError(CausalTabError):
    """A categorical-only test received a continuous column."""


class DegenerateGroupError(CausalTabError):
    """A two-group statistic received an empty group."""


class RankDeficientError(CausalTabError):
    """Design matrix does not have full column rank."""


class ZeroBaseError(CausalTabError):
    """Fold increase requested against a zero base rate."""


# --- graphs ---------------------------------------------------------------

class UnknownNodeError(CausalTabError):
    """A referenced node is not in the graph."""


class CyclicGraphError(CausalTabError):
    """A directed graph expected to be acyclic contains a cycle."""


class NotAdjacentError(CausalTabError):
    """An edge-level operation was asked about a non-adjacent pair."""


# --- trees / resampling ---------------------------------------------------

class EmptyDataError(CausalTabError):
    """Tree fitting received zero rows."""


class TooFewRowsError(CausalTabError):
    """Not enough rows to form the requested folds."""


class ExhaustedDrawsError(CausalTabError):
    """The pool holds too few features, or no draw matched the target row count."""


# --- pipeline -------------------------------------------------------------

class NoFeatureError(CausalTabError):
    """A pipeline step has nothing left to analyse.

    A view of features and outcome has no feature, fewer complete rows
    than ``min_rows`` (or none), an outcome constant as the tree splits it
    (no row of code 0, or only such rows), or only constant features; or
    the step-2 tree uses no feature, so step 3 has none.
    """
