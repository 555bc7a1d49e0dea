"""Typed columns backed by numpy arrays.

A :class:`Column` stores a name, a dtype and a numpy array of values.  The
supported dtypes mirror the attribute kinds the FeatAug paper distinguishes
when building predicates:

* ``numeric``   -- float64 values, ``NaN`` marks a missing value.
* ``datetime``  -- float64 epoch seconds, ``NaN`` marks a missing value.
* ``boolean``   -- float64 0.0/1.0 values, ``NaN`` marks a missing value.
* ``categorical`` -- object values (typically strings), ``None`` marks a
  missing value.

Datetime values are accepted as ``datetime.datetime``/``datetime.date``
objects, ISO strings (``YYYY-MM-DD`` or ``YYYY-MM-DD HH:MM:SS``) or raw epoch
seconds and normalised to epoch seconds internally so range predicates reduce
to plain float comparisons.
"""

from __future__ import annotations

import datetime as _dt
from enum import Enum
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


class DType(str, Enum):
    """Supported column dtypes."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    DATETIME = "datetime"
    BOOLEAN = "boolean"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_EPOCH = _dt.datetime(1970, 1, 1)


def parse_datetime(value) -> float:
    """Convert a datetime-like value to epoch seconds (float).

    Accepts ``datetime``/``date`` objects, ISO formatted strings, numbers
    (already epoch seconds) and ``None``/``NaN`` for missing values.
    """
    if value is None:
        return float("nan")
    if isinstance(value, float) and np.isnan(value):
        return float("nan")
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    if isinstance(value, _dt.datetime):
        return (value - _EPOCH).total_seconds()
    if isinstance(value, _dt.date):
        dt = _dt.datetime(value.year, value.month, value.day)
        return (dt - _EPOCH).total_seconds()
    if isinstance(value, str):
        text = value.strip()
        for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d"):
            try:
                return (_dt.datetime.strptime(text, fmt) - _EPOCH).total_seconds()
            except ValueError:
                continue
        raise ValueError(f"Cannot parse datetime string: {value!r}")
    raise TypeError(f"Cannot convert {type(value).__name__} to datetime")


def format_datetime(epoch_seconds: float) -> str:
    """Render epoch seconds back into an ISO timestamp string."""
    if epoch_seconds is None or np.isnan(epoch_seconds):
        return ""
    dt = _EPOCH + _dt.timedelta(seconds=float(epoch_seconds))
    if dt.hour == 0 and dt.minute == 0 and dt.second == 0:
        return dt.strftime("%Y-%m-%d")
    return dt.strftime("%Y-%m-%d %H:%M:%S")


def _coerce_numeric(values: Iterable) -> np.ndarray:
    out = np.asarray(
        [float("nan") if v is None else float(v) for v in values], dtype=np.float64
    )
    return out


def _coerce_categorical(values: Iterable) -> np.ndarray:
    out = np.empty(len(list(values)) if not hasattr(values, "__len__") else len(values), dtype=object)
    for i, v in enumerate(values):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            out[i] = None
        else:
            out[i] = v
    return out


def _coerce_datetime(values: Iterable) -> np.ndarray:
    return np.asarray([parse_datetime(v) for v in values], dtype=np.float64)


def _coerce_boolean(values: Iterable) -> np.ndarray:
    out = []
    for v in values:
        if v is None or (isinstance(v, float) and np.isnan(v)):
            out.append(float("nan"))
        else:
            out.append(1.0 if bool(v) else 0.0)
    return np.asarray(out, dtype=np.float64)


def infer_dtype(values: Sequence) -> DType:
    """Infer the dtype of a sequence of raw Python values."""
    saw_bool = False
    saw_number = False
    saw_datetime = False
    saw_other = False
    for v in values:
        if v is None or (isinstance(v, float) and np.isnan(v)):
            continue
        if isinstance(v, bool):
            saw_bool = True
        elif isinstance(v, (int, float, np.integer, np.floating)):
            saw_number = True
        elif isinstance(v, (_dt.datetime, _dt.date)):
            saw_datetime = True
        else:
            saw_other = True
    if saw_other:
        return DType.CATEGORICAL
    if saw_datetime and not saw_number and not saw_bool:
        return DType.DATETIME
    if saw_bool and not saw_number:
        return DType.BOOLEAN
    if saw_number or saw_bool:
        return DType.NUMERIC
    return DType.CATEGORICAL


def hash_codes(values) -> Tuple[np.ndarray, List]:
    """Code hashable values by first appearance with one dictionary pass.

    Returns ``(codes, labels)``: one ``int64`` code per value and
    ``labels[code]``, the first value seen with that code.  Values that
    compare and hash equal (``1``, ``1.0``, ``True``) share a code, and
    ``None`` is a label like any other.  This is the single coder for object
    keys: grouping, join-key matching, distinct values and value counts.
    """
    mapping: Dict[object, int] = {}
    codes = np.fromiter(
        (mapping.setdefault(v, len(mapping)) for v in values),
        dtype=np.int64,
        count=len(values),
    )
    return codes, list(mapping)


def key_objects(column: "Column") -> np.ndarray:
    """The column's values as normalised key objects.

    Numeric-like values become Python ``float``s with ``None`` for NaN;
    categorical values are returned as stored (``None`` marks a missing
    value).  Keys normalised this way match across dtypes exactly when the
    values compare equal, and every missing value matches every other.
    """
    if not column.is_numeric_like:
        return column.values
    out = column.values.astype(object)
    out[np.isnan(column.values)] = None
    return out


class Column:
    """A named, typed, immutable-by-convention column of values."""

    def __init__(self, name: str, values, dtype: DType | str | None = None):
        if not isinstance(name, str) or not name:
            raise ValueError("Column name must be a non-empty string")
        self.name = name
        if dtype is None:
            if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
                dtype = DType.NUMERIC
            else:
                materialised = list(values)
                dtype = infer_dtype(materialised)
                values = materialised
        dtype = DType(dtype)
        self.dtype = dtype
        if isinstance(values, np.ndarray) and dtype in (DType.NUMERIC, DType.DATETIME, DType.BOOLEAN):
            if values.dtype != np.float64:
                values = values.astype(np.float64)
            self.values = values
        elif isinstance(values, np.ndarray) and dtype is DType.CATEGORICAL and values.dtype == object:
            self.values = values
        else:
            materialised = list(values)
            if dtype is DType.NUMERIC:
                self.values = _coerce_numeric(materialised)
            elif dtype is DType.DATETIME:
                self.values = _coerce_datetime(materialised)
            elif dtype is DType.BOOLEAN:
                self.values = _coerce_boolean(materialised)
            else:
                self.values = _coerce_categorical(materialised)

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __getitem__(self, item):
        return self.values[item]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Column(name={self.name!r}, dtype={self.dtype.value}, n={len(self)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.name != other.name or self.dtype != other.dtype:
            return False
        if len(self) != len(other):
            return False
        if self.is_numeric_like:
            a, b = self.values, other.values
            both_nan = np.isnan(a) & np.isnan(b)
            return bool(np.all((a == b) | both_nan))
        return bool(np.all(self.values == other.values))

    def __hash__(self):  # Columns are mutable containers; identity hash.
        return id(self)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def is_numeric_like(self) -> bool:
        """True for numeric, datetime and boolean columns (float storage)."""
        return self.dtype in (DType.NUMERIC, DType.DATETIME, DType.BOOLEAN)

    def is_missing(self) -> np.ndarray:
        """Boolean mask of missing entries."""
        if self.is_numeric_like:
            return np.isnan(self.values)
        return np.asarray([v is None for v in self.values], dtype=bool)

    def null_count(self) -> int:
        return int(self.is_missing().sum())

    def unique(self) -> list:
        """Distinct non-missing values (order of first appearance)."""
        _, labels = hash_codes(key_objects(self))
        return [v for v in labels if v is not None]

    def min(self):
        if not self.is_numeric_like:
            raise TypeError(f"min() is not defined for {self.dtype.value} column {self.name!r}")
        finite = self.values[~np.isnan(self.values)]
        return float(finite.min()) if finite.size else float("nan")

    def max(self):
        if not self.is_numeric_like:
            raise TypeError(f"max() is not defined for {self.dtype.value} column {self.name!r}")
        finite = self.values[~np.isnan(self.values)]
        return float(finite.max()) if finite.size else float("nan")

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def take(self, indices) -> "Column":
        """Return a new column with rows re-ordered / repeated by *indices*."""
        indices = np.asarray(indices)
        return Column(self.name, self.values[indices], dtype=self.dtype)

    def filter(self, mask) -> "Column":
        """Return a new column keeping only rows where *mask* is True."""
        mask = np.asarray(mask, dtype=bool)
        return Column(self.name, self.values[mask], dtype=self.dtype)

    def rename(self, name: str) -> "Column":
        return Column(name, self.values, dtype=self.dtype)

    def copy(self) -> "Column":
        return Column(self.name, self.values.copy(), dtype=self.dtype)

    def to_list(self) -> list:
        """Return values as plain Python objects (datetimes stay as epoch floats)."""
        if self.is_numeric_like:
            return [float(v) for v in self.values]
        return list(self.values)

    def astype(self, dtype: DType | str) -> "Column":
        """Re-interpret the column as a different dtype."""
        dtype = DType(dtype)
        if dtype == self.dtype:
            return self.copy()
        if dtype is DType.CATEGORICAL:
            values = [None if m else v for v, m in zip(self.to_list(), self.is_missing())]
            return Column(self.name, values, dtype=DType.CATEGORICAL)
        if self.dtype is DType.CATEGORICAL:
            return Column(self.name, list(self.values), dtype=dtype)
        return Column(self.name, self.values, dtype=dtype)
