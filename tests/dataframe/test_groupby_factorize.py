"""The vectorized ``group_indices`` against the historical row-at-a-time loop.

The engine relies on ``factorize_key_codes`` producing exactly the grouping
the old dictionary implementation produced: NaN keys normalised to ``None``,
numeric keys normalised to ``float``, and groups ordered by first appearance.
"""

from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.column import Column, DType
from repro.dataframe.groupby import factorize_column, factorize_key_codes, group_indices
from repro.dataframe.table import Table


def group_indices_reference(table: Table, keys: Sequence[str]) -> Dict[tuple, np.ndarray]:
    """The seed's row-at-a-time implementation, kept as the behavioural spec."""
    if not keys:
        raise ValueError("group_indices needs at least one key column")
    key_columns = [table.column(k) for k in keys]
    buckets: Dict[tuple, List[int]] = {}
    n = table.num_rows
    normalised = []
    for col in key_columns:
        if col.is_numeric_like:
            normalised.append([None if np.isnan(v) else float(v) for v in col.values])
        else:
            normalised.append(list(col.values))
    for i in range(n):
        key = tuple(values[i] for values in normalised)
        buckets.setdefault(key, []).append(i)
    return {k: np.asarray(v, dtype=np.int64) for k, v in buckets.items()}


def assert_same_grouping(table: Table, keys: Sequence[str]) -> None:
    actual = group_indices(table, keys)
    expected = group_indices_reference(table, keys)
    # Same key tuples, in the same (first appearance) order.
    assert list(actual.keys()) == list(expected.keys())
    for key in expected:
        assert actual[key].dtype == np.int64
        assert list(actual[key]) == list(expected[key])


finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


@st.composite
def mixed_tables(draw):
    n = draw(st.integers(min_value=1, max_value=60))

    def rows(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return Table(
        [
            Column(
                "num_key",
                rows(st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 3.5]))),
                dtype=DType.NUMERIC,
            ),
            Column("cat_key", rows(st.sampled_from(["a", "b", None])), dtype=DType.CATEGORICAL),
            Column("bool_key", rows(st.sampled_from([True, False, None])), dtype=DType.BOOLEAN),
            Column("v", rows(finite_floats), dtype=DType.NUMERIC),
        ]
    )


class TestFactorizeMatchesReference:
    @given(table=mixed_tables())
    @settings(max_examples=60, deadline=None)
    def test_single_numeric_key(self, table):
        assert_same_grouping(table, ["num_key"])

    @given(table=mixed_tables())
    @settings(max_examples=60, deadline=None)
    def test_single_categorical_key(self, table):
        assert_same_grouping(table, ["cat_key"])

    @given(table=mixed_tables())
    @settings(max_examples=60, deadline=None)
    def test_mixed_multi_key(self, table):
        assert_same_grouping(table, ["num_key", "cat_key", "bool_key"])

    @given(table=mixed_tables())
    @settings(max_examples=30, deadline=None)
    def test_group_codes_partition_rows(self, table):
        codes, group_keys, group_rows = factorize_key_codes(table, ["num_key", "cat_key"])
        assert codes.shape == (table.num_rows,)
        assert len(group_keys) == len(group_rows)
        gathered = np.concatenate(group_rows)
        assert sorted(gathered.tolist()) == list(range(table.num_rows))
        for g, rows in enumerate(group_rows):
            assert np.all(codes[rows] == g)


class TestNormalisation:
    def test_nan_keys_normalise_to_none(self):
        table = Table.from_dict({"k": [1.0, float("nan"), 1.0, float("nan")], "v": [1, 2, 3, 4]})
        groups = group_indices(table, ["k"])
        assert set(groups.keys()) == {(1.0,), (None,)}
        assert list(groups[(None,)]) == [1, 3]

    def test_int_and_float_keys_collapse(self):
        table = Table.from_dict({"k": [1, 1.0, 2], "v": [1.0, 2.0, 3.0]})
        groups = group_indices(table, ["k"])
        assert len(groups) == 2
        assert all(isinstance(key[0], float) for key in groups)

    def test_none_categorical_key_is_its_own_group(self):
        table = Table(
            [
                Column("k", ["a", None, "a", None], dtype=DType.CATEGORICAL),
                Column("v", [1.0, 2.0, 3.0, 4.0], dtype=DType.NUMERIC),
            ]
        )
        groups = group_indices(table, ["k"])
        assert list(groups[(None,)]) == [1, 3]

    def test_mixed_type_categorical_values_fall_back(self):
        """Unorderable object mixes (str vs int) group like any other labels:
        the hash coder needs no ordering, so there is no fallback path left."""
        table = Table(
            [
                Column("k", ["a", 1, "a", 2, None], dtype=DType.CATEGORICAL),
                Column("v", [1.0, 2.0, 3.0, 4.0, 5.0], dtype=DType.NUMERIC),
            ]
        )
        assert_same_grouping(table, ["k"])


class TestOrderingAndEdges:
    def test_groups_ordered_by_first_appearance(self):
        table = Table.from_dict({"k": ["z", "a", "m", "a", "z"], "v": [1, 2, 3, 4, 5]})
        groups = group_indices(table, ["k"])
        assert list(groups.keys()) == [("z",), ("a",), ("m",)]

    def test_rows_within_group_ascending(self):
        table = Table.from_dict({"k": ["b", "a", "b", "a", "b"], "v": [1, 2, 3, 4, 5]})
        groups = group_indices(table, ["k"])
        assert list(groups[("b",)]) == [0, 2, 4]
        assert list(groups[("a",)]) == [1, 3]

    def test_empty_table(self):
        table = Table([Column("k", [], dtype=DType.NUMERIC), Column("v", [], dtype=DType.NUMERIC)])
        assert group_indices(table, ["k"]) == {}

    def test_requires_a_key(self):
        table = Table.from_dict({"k": [1], "v": [2]})
        with pytest.raises(ValueError):
            group_indices(table, [])

    def test_factorize_column_all_missing(self):
        codes, labels = factorize_column(Column("k", [None, None], dtype=DType.CATEGORICAL))
        assert labels == [None]
        assert list(codes) == [0, 0]

    def test_factorize_column_numeric_labels_are_floats(self):
        codes, labels = factorize_column(Column("k", [2, 1, 2], dtype=DType.NUMERIC))
        assert labels == [1.0, 2.0]
        assert list(codes) == [1, 0, 1]

    def test_datetime_key_grouping(self):
        table = Table(
            [
                Column("ts", ["2023-01-01", "2023-01-02", "2023-01-01"], dtype=DType.DATETIME),
                Column("v", [1.0, 2.0, 3.0], dtype=DType.NUMERIC),
            ]
        )
        assert_same_grouping(table, ["ts"])
