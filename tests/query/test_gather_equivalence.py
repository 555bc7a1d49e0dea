"""Gathered features against the ``LEFT JOIN`` reference (Definition 3).

``apply_queries`` and ``ModelEvaluator.feature_vectors_for_queries`` no longer
join each result onto the training table: they map rows to the engine's group
ids once (``GroupIndex.ids_of``) and gather.  The join stays the oracle:
every gathered feature must equal
``augment_training_table(...).column(out).values`` -- bit for bit on the
in-process backends, within ``1e-9`` on sqlite (whose aggregates are computed
in SQL) and bit for bit against a join of the same result tables on every
backend.

Covered: backends x worker counts {1, 2}; one- and two-column keys; numeric,
categorical and mixed-dtype keys (a categorical relevant key holding ints
matched by a numeric training key, and the reverse); NaN / ``None`` keys,
keys the relevant table never saw, empty results; re-applying the same
batch after ``append_rows`` with incremental refresh on and off (the id
memos must follow the grown table, including keys the append introduces,
and a grown batch); an input that already has a ``feataug_0`` column; and a
batch missing a key column.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.evaluation import ModelEvaluator
from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.ml.linear import LogisticRegression
from repro.query.augment import apply_queries, augment_training_table, gather_features
from repro.query.backends import backend_names
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.executor import execute_query_naive
from repro.query.query import PredicateAwareQuery

BACKENDS = tuple(backend_names())
EXACT_BACKENDS = ("numpy", "python")
VALUE_TOLERANCE = 1e-9
WORKERS = (1, 2)

#: kind -> (relevant dtype, relevant labels, labels only appends introduce,
#: training dtype, training labels).  Training labels include keys the
#: relevant table never has and keys only an append brings in.
KEY_KINDS = {
    "numeric": (
        DType.NUMERIC, [0.0, 1.0, 2.5, None], [7.0],
        DType.NUMERIC, [0.0, 1.0, 2.5, 7.0, 9.0, None],
    ),
    "categorical": (
        DType.CATEGORICAL, ["a", "b", "c", None], ["zz"],
        DType.CATEGORICAL, ["a", "b", "c", "zz", "q", None],
    ),
    "mixed": (
        DType.CATEGORICAL, [1, 2, "a", None], [3],
        DType.NUMERIC, [1.0, 2.0, 3.0, 4.0, None],
    ),
    "mixed_reverse": (
        DType.NUMERIC, [1.0, 2.0, None], [5.0],
        DType.CATEGORICAL, [1, "1", "a", 2.0, 5.0, None],
    ),
}


def engine_for_test(relevant, backend, workers, incremental=False):
    return QueryEngine(
        relevant,
        config=EngineConfig(backend=backend, num_workers=workers, incremental=incremental),
    )


def relevant_rows(draw, kinds, labels_of, n_min, n_max):
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    data = {
        f"k{i}": draw(st.lists(st.sampled_from(labels_of(kind)), min_size=n, max_size=n))
        for i, kind in enumerate(kinds)
    }
    data["cat"] = draw(st.lists(st.sampled_from(["x", "y", None]), min_size=n, max_size=n))
    data["v"] = draw(
        st.lists(
            st.one_of(st.none(), st.floats(min_value=-5, max_value=5, allow_nan=False)),
            min_size=n,
            max_size=n,
        )
    )
    return data


def build(data, dtypes):
    return Table([Column(name, values, dtype=dtypes[name]) for name, values in data.items()])


@st.composite
def scenarios(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_KINDS)), min_size=1, max_size=2))
    keys = tuple(f"k{i}" for i in range(len(kinds)))
    rel_dtypes = {key: KEY_KINDS[kind][0] for key, kind in zip(keys, kinds)}
    rel_dtypes.update(cat=DType.CATEGORICAL, v=DType.NUMERIC)
    relevant = build(
        relevant_rows(draw, kinds, lambda kind: KEY_KINDS[kind][1], 1, 25), rel_dtypes
    )
    delta = relevant_rows(
        draw, kinds, lambda kind: KEY_KINDS[kind][1] + KEY_KINDS[kind][2], 0, 8
    )
    m = draw(st.integers(min_value=0, max_value=15))
    train = Table(
        [
            Column(
                key,
                draw(st.lists(st.sampled_from(KEY_KINDS[kind][4]), min_size=m, max_size=m)),
                dtype=KEY_KINDS[kind][3],
            )
            for key, kind in zip(keys, kinds)
        ]
        + [Column("label", np.arange(m, dtype=np.float64), dtype=DType.NUMERIC)]
    )
    queries = [
        PredicateAwareQuery("SUM", "v", keys, {}, {}),
        PredicateAwareQuery("AVG", "v", keys, {"cat": "x"}, {"cat": DType.CATEGORICAL}),
        PredicateAwareQuery("MEDIAN", "v", keys, {"v": (-1.0, 2.0)}, {"v": DType.NUMERIC}),
        # Matches no row: an empty result, every training row gets NaN.
        PredicateAwareQuery("MAX", "v", keys, {"cat": "none-such"}, {"cat": DType.CATEGORICAL}),
    ]
    return relevant, delta, train, queries


def joined(train, feature_table, query):
    out = augment_training_table(train, feature_table, query.keys, query.feature_name, "__ref__")
    return out.column("__ref__").values


def reference(train, relevant, query):
    return joined(train, execute_query_naive(query, relevant), query)


def bit_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.dtype != np.float64 or expected.dtype != np.float64:
        return False
    if actual.shape != expected.shape:
        return False
    nan_a, nan_e = np.isnan(actual), np.isnan(expected)
    return bool(
        np.array_equal(nan_a, nan_e)
        and np.array_equal(actual[~nan_a].view(np.int64), expected[~nan_e].view(np.int64))
    )


def assert_reference(actual, expected, backend):
    if backend in EXACT_BACKENDS:
        assert bit_equal(actual, expected)
        return
    assert actual.dtype == np.float64 and actual.shape == expected.shape
    nan_a, nan_e = np.isnan(actual), np.isnan(expected)
    assert np.array_equal(nan_a, nan_e)
    np.testing.assert_allclose(actual[~nan_a], expected[~nan_e], rtol=0, atol=VALUE_TOLERANCE)


def reference_apply(train, relevant, queries, prefix="feataug"):
    augmented = train
    for i, query in enumerate(queries):
        augmented = augment_training_table(
            augmented, execute_query_naive(query, relevant), query.keys,
            query.feature_name, f"{prefix}_{i}",
        )
    return augmented


def assert_same_augmented(actual, expected, backend):
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        a, e = actual.column(name), expected.column(name)
        assert a.dtype == e.dtype
        if a.dtype is DType.NUMERIC and name.startswith("feataug"):
            assert_reference(a.values, e.values, backend)
        else:
            assert a == e


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestGatherEqualsJoin:
    @given(scenario=scenarios())
    @SETTINGS
    def test_gathered_features_equal_the_left_join(self, backend, workers, scenario):
        relevant, _, train, queries = scenario
        engine = engine_for_test(relevant, backend, workers)
        try:
            results = engine.execute_batch(queries)
            gathered = gather_features(engine, train, queries, results)
            for query, result, values in zip(queries, results, gathered):
                assert bit_equal(values, joined(train, result, query))
                assert_reference(values, reference(train, relevant, query), backend)
            # A second gather is served from the id memos, with equal values.
            again = gather_features(engine, train, queries, results)
            for first, second in zip(gathered, again):
                assert bit_equal(first, second)
        finally:
            engine.close()

    @pytest.mark.parametrize("incremental", [False, True])
    @given(scenario=scenarios())
    @SETTINGS
    def test_reapplied_batch_follows_appends(self, backend, workers, incremental, scenario):
        relevant, delta, train, queries = scenario
        engine = engine_for_test(relevant, backend, workers, incremental)
        try:
            before = apply_queries(train, relevant, queries, engine=engine)
            assert_same_augmented(before, reference_apply(train, relevant, queries), backend)
            relevant.append_rows(delta)
            after = apply_queries(train, relevant, queries, engine=engine)
            assert_same_augmented(after, reference_apply(train, relevant, queries), backend)
            # Growing the batch itself bumps its version: its ids are re-mapped.
            train.append_rows(train.take(np.arange(train.num_rows)[::-1][:3]))
            grown = apply_queries(train, relevant, queries, engine=engine)
            assert_same_augmented(grown, reference_apply(train, relevant, queries), backend)
        finally:
            engine.close()


class TestApplyQueriesEdges:
    def tables(self):
        relevant = Table(
            [
                Column("k", ["a", "b", "a", None, "c"], dtype=DType.CATEGORICAL),
                Column("v", [1.0, 2.0, 3.0, 4.0, 5.0], dtype=DType.NUMERIC),
            ]
        )
        train = Table(
            [
                Column("k", ["c", None, "a", "zz"], dtype=DType.CATEGORICAL),
                Column("feataug_0", [9.0, 9.0, 9.0, 9.0], dtype=DType.NUMERIC),
            ]
        )
        queries = [
            PredicateAwareQuery("SUM", "v", ("k",), {}, {}),
            PredicateAwareQuery("COUNT", "v", ("k",), {}, {}),
        ]
        return relevant, train, queries

    def test_existing_feature_column_gets_the_join_suffix(self):
        relevant, train, queries = self.tables()
        out = apply_queries(train, relevant, queries, engine=QueryEngine(relevant))
        assert out.column_names == ["k", "feataug_0", "feataug_0_right", "feataug_1"]
        expected = reference_apply(train, relevant, queries)
        assert out.column_names == expected.column_names
        assert_same_augmented(out, expected, "numpy")
        assert bit_equal(out.column("feataug_0_right").values, np.array([5.0, 4.0, 4.0, np.nan]))

    def test_batch_missing_a_key_column_raises_the_join_error(self):
        relevant, train, queries = self.tables()
        batch = train.select(["feataug_0"])
        with pytest.raises(KeyError) as joined_error:
            augment_training_table(
                batch, execute_query_naive(queries[0], relevant), ("k",), "feature", "out"
            )
        with pytest.raises(KeyError) as gathered_error:
            apply_queries(batch, relevant, queries, engine=QueryEngine(relevant))
        assert "'k'" in str(gathered_error.value)
        assert str(gathered_error.value) == str(joined_error.value)

    def test_evaluator_vectors_equal_the_join(self):
        relevant, train, queries = self.tables()
        train = train.with_column(Column("label", [0.0, 1.0, 0.0, 1.0], dtype=DType.NUMERIC))
        valid = train.take([3, 2, 2])
        evaluator = ModelEvaluator(
            train, valid, "label", [], LogisticRegression(), "binary", relevant_table=relevant
        )
        train_vecs, valid_vecs = evaluator.feature_vectors_for_queries(queries)
        for query, train_vec, valid_vec in zip(queries, train_vecs, valid_vecs):
            assert bit_equal(train_vec, reference(train, relevant, query))
            assert bit_equal(valid_vec, reference(valid, relevant, query))


class TestIdsOfUnderThreads:
    def test_concurrent_id_mapping_matches_serial(self):
        """Eight threads share one index and its id memo across tables that
        are mapped cold and warm; every call must see the serial ids."""
        import sys
        import threading

        rng = np.random.default_rng(0)
        relevant = Table(
            [
                Column("k", [f"u{i}" for i in rng.integers(0, 40, 400)], dtype=DType.CATEGORICAL),
                Column("v", rng.random(400), dtype=DType.NUMERIC),
            ]
        )
        engine = QueryEngine(relevant)
        index = engine.group_index(("k",))
        tables = [
            Table([Column("k", [f"u{i}" for i in rng.integers(0, 50, 300)], dtype=DType.CATEGORICAL)])
            for _ in range(6)
        ]
        expected = [
            np.asarray([index.group_keys.index((v,)) if (v,) in index.group_keys else -1
                        for v in table.column("k").values], dtype=np.int64)
            for table in tables
        ]
        errors = []

        def work(offset):
            try:
                for step in range(60):
                    j = (offset + step) % len(tables)
                    if not np.array_equal(index.ids_of(tables[j]), expected[j]):
                        errors.append(j)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
