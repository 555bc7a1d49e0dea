"""CSV input/output for :class:`~repro.dataframe.table.Table`.

The example scripts persist the synthetic datasets to disk and read them back
so that the public API mirrors the pandas-based workflow of the original
FeatAug repository (``pd.read_csv`` -> search -> ``to_csv``).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.dataframe.column import Column, DType, format_datetime
from repro.dataframe.table import Table

_MISSING_TOKENS = {"", "na", "nan", "null", "none"}


def _try_parse_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _looks_like_datetime(text: str) -> bool:
    if len(text) < 8 or text[4:5] != "-":
        return False
    head = text[:4]
    return head.isdigit()


def _infer_column(name: str, raw: List[str]) -> Column:
    non_missing = [v for v in raw if v.strip().lower() not in _MISSING_TOKENS]
    if non_missing and all(_looks_like_datetime(v.strip()) for v in non_missing):
        values = [None if v.strip().lower() in _MISSING_TOKENS else v.strip() for v in raw]
        return Column(name, values, dtype=DType.DATETIME)
    parsed = [_try_parse_float(v) for v in non_missing]
    if non_missing and all(p is not None for p in parsed):
        values = [
            float("nan") if v.strip().lower() in _MISSING_TOKENS else float(v) for v in raw
        ]
        return Column(name, values, dtype=DType.NUMERIC)
    values = [None if v.strip().lower() in _MISSING_TOKENS else v for v in raw]
    return Column(name, values, dtype=DType.CATEGORICAL)


def read_csv(path: str | Path, dtypes: Dict[str, DType | str] | None = None) -> Table:
    """Read a CSV file into a :class:`Table`, inferring dtypes per column.

    ``dtypes`` can force specific columns to a dtype (e.g. treat an integer id
    column as categorical).  A data row shorter than the header is padded
    with missing values (a blank line reads as one missing row); a row with
    more fields than the header raises ``ValueError`` naming its line.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows:
        return Table([])
    header, data_rows = rows[0], rows[1:]
    if data_rows and max(map(len, data_rows)) > len(header):
        line, fields = _first_overlong_row(path, len(header))
        raise ValueError(
            f"{path}: line {line} has {fields} fields but the header has {len(header)}"
        )
    columns: List[Column] = []
    forced = {k: DType(v) for k, v in (dtypes or {}).items()}
    for j, name in enumerate(header):
        raw = [row[j] if j < len(row) else "" for row in data_rows]
        if name in forced:
            dtype = forced[name]
            if dtype in (DType.NUMERIC, DType.BOOLEAN):
                values = [
                    float("nan") if v.strip().lower() in _MISSING_TOKENS else float(v)
                    for v in raw
                ]
            elif dtype is DType.DATETIME:
                values = [None if v.strip().lower() in _MISSING_TOKENS else v.strip() for v in raw]
            else:
                values = [None if v.strip().lower() in _MISSING_TOKENS else v for v in raw]
            columns.append(Column(name, values, dtype=dtype))
        else:
            columns.append(_infer_column(name, raw))
    return Table(columns)


def _first_overlong_row(path: Path, width: int) -> Tuple[int, int]:
    """``(1-based line, field count)`` of the first data row of *path* with
    more than *width* fields.

    Re-reads the file: the fast path of :func:`read_csv` does not track line
    numbers, and a quoted field may span several physical lines.
    """
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        line = reader.line_num + 1
        for row in reader:
            if len(row) > width:
                break
            line = reader.line_num + 1
    return line, len(row)


def write_csv(table: Table, path: str | Path) -> None:
    """Write a :class:`Table` to a CSV file (datetimes rendered as ISO strings)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.column_names)
        columns = [table.column(name) for name in table.column_names]
        for i in range(table.num_rows):
            row = []
            for col in columns:
                v = col.values[i]
                if col.dtype is DType.DATETIME:
                    row.append(format_datetime(v))
                elif col.is_numeric_like:
                    row.append("" if np.isnan(v) else repr(float(v)))
                else:
                    row.append("" if v is None else str(v))
            writer.writerow(row)
