"""Attach generated features to the training table (Definition 3)."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.dataframe.column import Column
from repro.dataframe.table import Table
from repro.query.engine import GroupIndex, QueryEngine, resolve_engine
from repro.query.query import PredicateAwareQuery


def augment_training_table(
    training_table: Table,
    feature_table: Table,
    keys: Sequence[str],
    feature_name: str,
    output_name: str | None = None,
) -> Table:
    """Left join the query result onto the training table.

    The training table keeps its row order; rows whose key has no match in
    the feature table receive a missing value (NaN), exactly like the SQL
    ``LEFT JOIN`` in Definition 3.  This is the reference that
    :func:`gather_features` is held to bit for bit.
    """
    output_name = output_name or feature_name
    renamed = feature_table.rename({feature_name: output_name})
    return training_table.left_join(renamed, on=list(keys))


def _gather(
    index: GroupIndex, table: Table, feature_table: Table, keys: Sequence[str], feature_name: str
) -> np.ndarray:
    for key in keys:
        if key not in table or key not in feature_table:
            raise KeyError(f"Join key {key!r} must exist in both tables")
    result_ids = index.ids_of(feature_table)
    table_ids = index.ids_of(table)
    # One slot per group plus a trailing -1 that unseen keys (id -1) index.
    row_of_gid = np.full(index.n_groups + 1, -1, dtype=np.int64)
    found = np.flatnonzero(result_ids >= 0)[::-1]
    # Reversed scatter: the earliest result row wins every collision.
    row_of_gid[result_ids[found]] = found
    rows = row_of_gid[table_ids]
    out = np.full(rows.shape[0], np.nan, dtype=np.float64)
    hit = rows >= 0
    out[hit] = feature_table.column(feature_name).values[rows[hit]]
    return out


def gather_features(
    engine: QueryEngine,
    table: Table,
    queries: Sequence[PredicateAwareQuery],
    feature_tables: Sequence[Table],
) -> List[np.ndarray]:
    """Each query's feature aligned to *table*'s rows, without a join.

    *feature_tables* are the engine's results for *queries*.  Every row of
    *table* and of each result is mapped to the engine's group id for the
    query's keys (:meth:`GroupIndex.ids_of`, memoised per table), so a
    feature is one gather ``values[row_of_gid[ids]]`` with NaN where the key
    has no result row.  The values are bit for bit those of
    :func:`augment_training_table`, including first-match-wins and NaN /
    ``None`` keys matching each other; a key column missing from *table*
    raises the same ``KeyError``.
    """
    indexes: Dict[tuple, GroupIndex] = {}
    features: List[np.ndarray] = []
    for query, feature_table in zip(queries, feature_tables):
        keys = tuple(query.keys)
        if keys not in indexes:
            indexes[keys] = engine.group_index(keys)
        features.append(
            _gather(indexes[keys], table, feature_table, keys, query.feature_name)
        )
    return features


def apply_queries(
    training_table: Table,
    relevant_table: Table,
    queries: Sequence[PredicateAwareQuery],
    prefix: str = "feataug",
    engine: QueryEngine | None = None,
) -> Table:
    """Execute every query and append one feature column per query.

    Columns are named ``{prefix}_{i}`` (with ``left_join``'s ``_right``
    suffix when the name is taken); this is how the final augmented training
    table ``D^{q1..qn}`` is materialised once the search has picked its
    queries.  Execution goes through the shared
    :class:`~repro.query.engine.QueryEngine` for *relevant_table* as one
    batch, so queries sharing WHERE atoms or keys reuse masks and indexes,
    and the features are gathered (:func:`gather_features`), not joined.
    """
    queries = list(queries)
    if not queries:
        return training_table
    engine = resolve_engine(relevant_table, engine)
    feature_tables = engine.execute_batch(queries)
    features = gather_features(engine, training_table, queries, feature_tables)
    columns = [training_table.column(name) for name in training_table.column_names]
    existing = set(training_table.column_names)
    for i, (query, feature_table, values) in enumerate(zip(queries, feature_tables, features)):
        name = f"{prefix}_{i}"
        if name in existing:
            name += "_right"
        existing.add(name)
        columns.append(Column(name, values, dtype=feature_table.column(query.feature_name).dtype))
    return Table(columns)


def generated_feature_names(queries: Sequence[PredicateAwareQuery], prefix: str = "feataug") -> List[str]:
    """The column names :func:`apply_queries` will produce for *queries*."""
    return [f"{prefix}_{i}" for i in range(len(queries))]
