"""Hash group-by with aggregation.

This is the execution engine behind every generated query: after the WHERE
clause has filtered the relevant table, rows are grouped by the foreign-key
column(s) and a single aggregation function is applied to the aggregation
attribute, producing a one-row-per-key feature table.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.dataframe.aggregates import (
    AGGREGATE_FUNCTIONS,
    column_to_aggregable,
    parse_aggregate_name,
    resolve_aggregate,
)
from repro.dataframe.column import Column, DType, hash_codes
from repro.dataframe.table import Table


def factorize_column(column: Column) -> Tuple[np.ndarray, List]:
    """Factorize one column into integer codes plus the label of each code.

    Returns ``(codes, labels)`` where ``codes`` holds one ``int64`` code per
    row and ``labels[code]`` is the normalised key value: ``float`` for
    numeric-like columns, the raw value for categoricals, and ``None`` for
    missing entries (NaN / None), matching the key normalisation of the
    row-at-a-time grouping this replaces.  Numeric codes follow value
    order; categorical codes follow first appearance (:func:`hash_codes`).
    """
    if column.is_numeric_like:
        values = column.values
        missing = np.isnan(values)
        uniques = np.unique(values[~missing])
        codes = np.searchsorted(uniques, values).astype(np.int64)
        labels: List = [float(v) for v in uniques]
        if missing.any():
            codes[missing] = uniques.size
            labels.append(None)
        return codes, labels
    return hash_codes(column.values)


def renumber_codes_compact(
    codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-number an integer array by first appearance, without materialising
    per-group position lists.

    Returns ``(ordered_values, group_codes, first_positions)``: the distinct
    input values in first-appearance order, the re-numbered group id per
    position, and each group's first position.  This is all the vectorized
    grouped-aggregation kernels need; :func:`renumber_codes_by_first_appearance`
    adds the per-group position lists the per-group Python path consumes.
    """
    n = codes.shape[0]
    uniques, inverse = np.unique(codes, return_inverse=True)
    n_groups = uniques.size
    first = np.full(n_groups, n, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(n, dtype=np.int64))
    order = np.argsort(first, kind="stable")
    remap = np.empty(n_groups, dtype=np.int64)
    remap[order] = np.arange(n_groups, dtype=np.int64)
    return uniques[order], remap[inverse], first[order]


def group_positions_from_codes(group_codes: np.ndarray, n_groups: int) -> List[np.ndarray]:
    """Ascending positions of every group id in ``[0, n_groups)``."""
    counts = np.bincount(group_codes, minlength=n_groups)
    positions = np.argsort(group_codes, kind="stable")
    return np.split(positions, np.cumsum(counts)[:-1])


def renumber_codes_by_first_appearance(
    codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], np.ndarray]:
    """Group an integer array, numbering groups by first appearance.

    Returns ``(ordered_values, group_codes, group_positions, first_positions)``:
    the distinct input values in first-appearance order, the re-numbered group
    id per position, the ascending positions of every group, and each group's
    first position.  ``np.unique`` orders groups by value; re-numbering them by
    first appearance is what makes vectorized grouping element-wise identical
    to the historical row-at-a-time dictionary implementation.
    """
    ordered_values, group_codes, first = renumber_codes_compact(codes)
    group_positions = group_positions_from_codes(group_codes, ordered_values.size)
    return ordered_values, group_codes, group_positions, first


def factorize_key_codes(
    table: Table, keys: Sequence[str]
) -> Tuple[np.ndarray, List[tuple], List[np.ndarray]]:
    """Vectorized multi-column grouping.

    Returns ``(group_codes, group_keys, group_rows)``: one group code per row,
    the normalised key tuple of every group and the ascending row positions of
    every group.  Group ids are assigned in order of first appearance, so the
    grouping is element-wise identical to the historical row-at-a-time
    dictionary implementation.
    """
    if not keys:
        raise ValueError("group_indices needs at least one key column")
    n = table.num_rows
    if n == 0:
        return np.empty(0, dtype=np.int64), [], []
    per_key = [factorize_column(table.column(k)) for k in keys]

    combined = per_key[0][0]
    for codes, labels in per_key[1:]:
        # Compact after every merge so the combined ids stay < num_rows and
        # the multiply below can never overflow int64.
        combined = combined * np.int64(max(len(labels), 1)) + codes
        _, combined = np.unique(combined, return_inverse=True)

    _, group_codes, group_rows, representatives = renumber_codes_by_first_appearance(combined)
    group_keys = [
        tuple(labels[codes[row]] for codes, labels in per_key)
        for row in representatives
    ]
    return group_codes, group_keys, group_rows


def group_indices(table: Table, keys: Sequence[str]) -> Dict[tuple, np.ndarray]:
    """Map each distinct key tuple to the integer row positions in its group."""
    _, group_keys, group_rows = factorize_key_codes(table, keys)
    return {key: np.asarray(rows, dtype=np.int64) for key, rows in zip(group_keys, group_rows)}


def group_by_aggregate(
    table: Table,
    keys: Sequence[str],
    agg_attr: str,
    agg_func: str,
    output_name: str = "feature",
) -> Table:
    """``SELECT keys, agg_func(agg_attr) AS output_name FROM table GROUP BY keys``.

    Returns a table with one row per distinct key combination, the key
    columns preserved with their original dtypes, plus a numeric feature
    column.
    """
    func_name, param = parse_aggregate_name(agg_func)
    if param is None and func_name not in AGGREGATE_FUNCTIONS:
        raise KeyError(f"Unknown aggregation function {agg_func!r}")
    func = resolve_aggregate(func_name, param)

    groups = group_indices(table, keys)
    agg_values = column_to_aggregable(table.column(agg_attr))

    key_columns = [table.column(k) for k in keys]
    group_keys = list(groups.keys())
    feature = np.empty(len(group_keys), dtype=np.float64)
    for row, key in enumerate(group_keys):
        idx = groups[key]
        feature[row] = func(agg_values[idx])

    out_columns: List[Column] = []
    for pos, key_name in enumerate(keys):
        source = key_columns[pos]
        values = [key[pos] for key in group_keys]
        if source.is_numeric_like:
            data = np.asarray(
                [np.nan if v is None else v for v in values], dtype=np.float64
            )
            out_columns.append(Column(key_name, data, dtype=source.dtype))
        else:
            out_columns.append(Column(key_name, values, dtype=DType.CATEGORICAL))
    out_columns.append(Column(output_name, feature, dtype=DType.NUMERIC))
    return Table(out_columns)


def group_sizes(table: Table, keys: Sequence[str]) -> Dict[tuple, int]:
    """Number of rows per key group (useful for dataset sanity checks)."""
    return {k: int(v.size) for k, v in group_indices(table, keys).items()}
