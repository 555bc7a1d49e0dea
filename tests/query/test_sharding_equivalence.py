"""Shard-equivalence suite: serial vs parallel execution on every backend.

The quality benchmarks depend on one canonical numeric trajectory, so
parallel execution must never perturb a result: for every registered backend
and every worker count, ``execute_batch`` must return tables element-wise
identical to the same engine running serially (``num_workers=1``).  The
in-process backends (numpy / python) are held to **bit-for-bit** identity --
workers aggregate over contexts prepared once on the coordinator, and a
heavy plan split into aggregate-spec units computes every spec from the same
context.  The sqlite backend (whose per-worker instances re-materialise their
own database) is held to the storage-owning value bar of ``1e-9``, exactly
like its serial-vs-naive bar.

Every equivalence case runs over the three batch shapes the one parallel
path distinguishes (``BATCH_SHAPES``): a batch that fuses into a single plan
(serial at any worker count), a wide batch of several plans (scheduled on the
pool) and a skewed batch whose one heavy plan is split into aggregate-spec
units.  Edge cases pinned explicitly: empty filter results (empty groups),
single-group tables, and group counts smaller than the worker count.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataframe.aggregates import AGGREGATE_FUNCTIONS
from repro.dataframe.column import Column, DType
from repro.dataframe.table import Table
from repro.query.backends import backend_names
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.query import PredicateAwareQuery, WindowConstraint
from repro.query.sharding import ShardScheduler, split_ranges

#: Plain aggregates plus spelled parameterized family members: parallel
#: execution must stay bit-identical for the sort-based kernels too.
AGG_FUNCS = list(AGGREGATE_FUNCTIONS) + [
    "QUANTILE:0.25",
    "QUANTILE:0.5",
    "TOP_K_SHARE:2",
]
BACKENDS = tuple(backend_names())
#: In-process backends: serial and sharded results must be bit-identical.
EXACT_BACKENDS = ("numpy", "python")
SHARD_COUNTS = (1, 2, 3, 4, 7)
#: Worker counts of the pool suites: serial, two and four workers.
POOL_WORKER_COUNTS = (1, 2, 4)
VALUE_TOLERANCE = 1e-9
#: "single": every query fuses into one plan, which runs serially even on a
#: multi-worker engine.  "wide": three fused plans, dispatched to the pool.
#: "skewed": one heavy plan (every aggregate) plus two light ones, so the
#: heavy plan exceeds the per-worker load and is split into spec ranges.
BATCH_SHAPES = ("single", "wide", "skewed")
#: Fused plans per shape (one per distinct predicate set).
SHAPE_PLANS = {"single": 1, "wide": 3, "skewed": 3}
EDGE_FUNCS = ("SUM", "COUNT", "MEDIAN", "MODE", "ENTROPY", "KURTOSIS")

finite_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def serial_engine(table: Table, backend: str) -> QueryEngine:
    return QueryEngine(table, config=EngineConfig(backend=backend, num_workers=1))


def sharded_engine(table: Table, backend: str, workers: int) -> QueryEngine:
    return QueryEngine(table, config=EngineConfig(backend=backend, num_workers=workers))


def shaped_batch(shape: str, funcs=EDGE_FUNCS, attr: str = "val"):
    """A batch of the given shape over ``key`` (see ``BATCH_SHAPES``)."""
    if shape == "single":
        specs = [({}, func) for func in funcs]
    elif shape == "wide":
        specs = [
            (predicates, func)
            for predicates in ({}, {"cat": "x"}, {"cat": "missing"})
            for func in funcs
        ]
    elif shape == "skewed":
        specs = [({}, func) for func in AGG_FUNCS]
        specs += [({"cat": "x"}, "SUM"), ({"cat": "missing"}, "COUNT")]
    else:
        raise ValueError(shape)
    return [
        PredicateAwareQuery(
            func, attr, ("key",), dict(predicates),
            {k: DType.CATEGORICAL for k in predicates},
        )
        for predicates, func in specs
    ]


def pooled(shape: str, workers: int) -> bool:
    """Whether a batch of *shape* is dispatched to the worker pool."""
    return workers > 1 and SHAPE_PLANS[shape] > 1


def assert_tables_match(actual: Table, expected: Table, exact: bool) -> None:
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        left, right = actual.column(name), expected.column(name)
        assert left.dtype is right.dtype
        if exact or not left.is_numeric_like:
            assert left == right, f"column {name!r} differs"
        else:
            a, b = left.values, right.values
            assert a.shape == b.shape
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.allclose(a, b, rtol=0.0, atol=VALUE_TOLERANCE, equal_nan=True)


def assert_batches_match(backend: str, actual, expected) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert_tables_match(got, want, exact=backend in EXACT_BACKENDS)


@st.composite
def random_tables(draw):
    """Small tables with NaN-bearing keys; group counts vary from 1 to ~20."""
    n = draw(st.integers(min_value=1, max_value=40))
    key_space = draw(st.sampled_from([[1.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]]))

    def rows(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return Table(
        [
            Column("key", rows(st.one_of(st.none(), st.sampled_from(key_space))), dtype=DType.NUMERIC),
            Column("cat", rows(st.sampled_from(["x", "y", "z", None])), dtype=DType.CATEGORICAL),
            Column("num", rows(st.one_of(st.none(), finite_floats)), dtype=DType.NUMERIC),
            Column("val", rows(st.one_of(st.none(), finite_floats)), dtype=DType.NUMERIC),
        ]
    )


@st.composite
def random_queries(draw):
    agg_func = draw(st.sampled_from(AGG_FUNCS))
    agg_attr = draw(st.sampled_from(["val", "num", "cat"]))
    predicates = {}
    if draw(st.booleans()):
        # "q" never occurs, so empty filter results are generated regularly
        # -- both for scalar equality and inside IN-lists.
        predicates["cat"] = draw(
            st.one_of(
                st.sampled_from(["x", "y", "q"]),
                st.lists(
                    st.sampled_from(["x", "y", "z", "q"]), min_size=1, max_size=3
                ).map(tuple),
            )
        )
    if draw(st.booleans()):
        low = draw(st.one_of(st.none(), finite_floats))
        high = draw(st.one_of(st.none(), finite_floats))
        if low is not None and high is not None and low > high:
            low, high = high, low
        if low is not None and high is not None and draw(st.booleans()):
            predicates["num"] = WindowConstraint(low, high)
        elif low is not None or high is not None:
            predicates["num"] = (low, high)
    dtypes = {attr: (DType.CATEGORICAL if attr == "cat" else DType.NUMERIC) for attr in predicates}
    return PredicateAwareQuery(agg_func, agg_attr, ("key",), predicates, dtypes)


@pytest.mark.parametrize("backend", BACKENDS)
class TestShardEquivalenceProperty:
    @given(
        table=random_tables(),
        queries=st.lists(random_queries(), min_size=1, max_size=6),
        workers=st.sampled_from(SHARD_COUNTS),
    )
    @settings(max_examples=15, deadline=None)
    def test_sharded_batch_matches_serial(self, backend, table, queries, workers):
        expected = serial_engine(table, backend).execute_batch(queries)
        sharded = sharded_engine(table, backend, workers)
        assert_batches_match(backend, sharded.execute_batch(queries), expected)
        # A second pass is served from the result cache and must match too.
        assert_batches_match(backend, sharded.execute_batch(queries), expected)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", BATCH_SHAPES)
@pytest.mark.parametrize("workers", SHARD_COUNTS)
class TestShardEquivalenceEdgeCases:
    def run_both(self, table, backend, workers, shape):
        queries = shaped_batch(shape)
        expected = serial_engine(table, backend).execute_batch(queries)
        engine = sharded_engine(table, backend, workers)
        assert_batches_match(backend, engine.execute_batch(queries), expected)
        assert engine.stats.sharded_batches == int(pooled(shape, workers))
        engine.close()

    def test_empty_filter_results(self, backend, workers, shape):
        rng = np.random.default_rng(0)
        table = Table(
            [
                Column("key", rng.integers(0, 5, size=30).astype(np.float64), dtype=DType.NUMERIC),
                Column("cat", ["y"] * 30, dtype=DType.CATEGORICAL),  # "x" never matches
                Column("val", rng.normal(size=30), dtype=DType.NUMERIC),
            ]
        )
        self.run_both(table, backend, workers, shape)

    def test_single_group_table(self, backend, workers, shape):
        table = Table(
            [
                Column("key", [1.0] * 12, dtype=DType.NUMERIC),
                Column("cat", ["x", "y"] * 6, dtype=DType.CATEGORICAL),
                Column("val", [float(i) for i in range(12)], dtype=DType.NUMERIC),
            ]
        )
        self.run_both(table, backend, workers, shape)

    def test_fewer_groups_than_workers(self, backend, workers, shape):
        table = Table(
            [
                Column("key", [1.0, 2.0, 1.0, 2.0, 1.0], dtype=DType.NUMERIC),
                Column("cat", ["x", "x", "y", "x", "x"], dtype=DType.CATEGORICAL),
                Column("val", [0.5, -1.5, 2.5, float("nan"), 3.5], dtype=DType.NUMERIC),
            ]
        )
        self.run_both(table, backend, workers, shape)


def pool_table(seed: int = 3) -> Table:
    """NaN / None-bearing table for the pool suites (numeric and categorical
    aggregation attributes, missing group keys excluded)."""
    rng = np.random.default_rng(seed)
    n = 120
    return Table(
        [
            Column("key", rng.integers(0, 11, size=n).astype(np.float64), dtype=DType.NUMERIC),
            Column(
                "cat",
                [["x", "y", "z", None][i] for i in rng.integers(0, 4, size=n)],
                dtype=DType.CATEGORICAL,
            ),
            Column(
                "val",
                np.where(rng.random(n) < 0.15, np.nan, rng.normal(size=n)),
                dtype=DType.NUMERIC,
            ),
        ]
    )


POOL_FUNCS = ("SUM", "COUNT", "MEDIAN", "MODE", "ENTROPY", "KURTOSIS", "MAD")


def pool_batch(shape: str):
    """``shaped_batch`` plus categorical aggregates fused into its plans."""
    queries = shaped_batch(shape, POOL_FUNCS)
    cat_predicates = {} if shape == "single" else {"cat": "x"}
    queries.append(
        PredicateAwareQuery(
            "MODE", "cat", ("key",), dict(cat_predicates),
            {k: DType.CATEGORICAL for k in cat_predicates},
        )
    )
    queries.append(PredicateAwareQuery("COUNT_DISTINCT", "cat", ("key",), {}, {}))
    return queries


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", BATCH_SHAPES)
@pytest.mark.parametrize("workers", POOL_WORKER_COUNTS)
class TestPoolEquivalence:
    """Thread-pool execution vs serial on NaN / None-bearing data, including
    categorical aggregation attributes, plus a result-cache second pass."""

    def test_matches_serial_and_serves_second_pass_from_cache(self, backend, shape, workers):
        table = pool_table()
        queries = pool_batch(shape)
        expected = serial_engine(table, backend).execute_batch(queries)
        engine = sharded_engine(table, backend, workers)
        try:
            assert_batches_match(backend, engine.execute_batch(queries), expected)
            assert engine.stats.sharded_batches == int(pooled(shape, workers))
            # A second pass is served from the coordinator's result cache.
            assert_batches_match(backend, engine.execute_batch(queries), expected)
            assert engine.stats.result_hits == len(queries)
            assert engine.stats.sharded_batches == int(pooled(shape, workers))
        finally:
            engine.close()
        engine.close()  # idempotent


def int_counters(stats) -> dict:
    return {
        name: value
        for name, value in stats.as_dict().items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shape", BATCH_SHAPES)
class TestPoolStats:
    """Pool stats are deterministic: identical runs on fresh engines book
    identical integer counters, and every counter but the pool's own
    (``sharded_batches`` / ``plan_shards``) matches serial execution."""

    POOL_COUNTERS = ("sharded_batches", "plan_shards", "workers")

    def run(self, backend, shape, workers):
        engine = sharded_engine(pool_table(), backend, workers)
        try:
            engine.execute_batch(pool_batch(shape))
            engine.execute_batch(pool_batch(shape))  # result-cache hits
            return int_counters(engine.stats)
        finally:
            engine.close()

    def test_counters_deterministic_across_runs(self, backend, shape):
        first, second = self.run(backend, shape, 4), self.run(backend, shape, 4)
        assert first == second
        # The first pass executes every query, the second is all cache hits.
        assert first["queries"] == len(pool_batch(shape))
        assert first["result_hits"] == len(pool_batch(shape))

    def test_counters_match_serial(self, backend, shape):
        serial, pool = self.run(backend, shape, 1), self.run(backend, shape, 4)
        for name in self.POOL_COUNTERS:
            serial.pop(name)
            pool.pop(name)
        assert pool == serial


class TestSplitRanges:
    @given(n=st.integers(min_value=0, max_value=200), shards=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_contiguous_balanced_cover(self, n, shards):
        ranges = split_ranges(n, shards)
        # Contiguous cover of [0, n) with no gaps or overlaps.
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in ranges]
        if n > 0:
            # Never more ranges than groups, never an empty range, balanced.
            assert len(ranges) == min(shards, n)
            assert min(sizes) >= 1
            assert max(sizes) - min(sizes) <= 1

    def test_empty_input(self):
        assert split_ranges(0, 4) == [(0, 0)]


def selection_table(n: int, seed: int = 7) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        [
            Column("key", rng.integers(0, 9, size=n).astype(np.float64), dtype=DType.NUMERIC),
            Column("cat", [str(c) for c in rng.choice(list("xyz"), size=n)], dtype=DType.CATEGORICAL),
            Column("val", rng.normal(size=n), dtype=DType.NUMERIC),
        ]
    )


class TestParallelPathSelection:
    """A multi-worker engine has one parallel path: a batch of two or more
    fused plans goes to the thread pool, a single fused plan of any cost
    runs serially on the calling thread (no shard section is booked)."""

    def test_wide_batch_is_pooled_and_single_plan_is_serial(self):
        wide = [
            PredicateAwareQuery(
                "SUM", "val", ("key",), {"cat": value}, {"cat": DType.CATEGORICAL}
            )
            for value in "xyz"
        ]
        # All queries of one batch fuse into ONE plan (same predicate / keys);
        # the heavy variant carries ~1.1e5 filtered-row x aggregate units.
        light = [PredicateAwareQuery("SUM", "val", ("key",))]
        heavy = [PredicateAwareQuery(func, "val", ("key",)) for func in AGG_FUNCS]
        heavy_rows = 110_000 // len(AGG_FUNCS)
        for queries, rows, pooled in (
            (wide, 60, True),
            (light, 50, False),
            (heavy, heavy_rows, False),
        ):
            table = selection_table(rows)
            expected = serial_engine(table, "numpy").execute_batch(queries)
            engine = sharded_engine(table, "numpy", 3)
            assert_batches_match("numpy", engine.execute_batch(queries), expected)
            stats = engine.stats
            if pooled:
                assert stats.sharded_batches == 1
                assert stats.plan_shards > 0
            else:
                assert stats.sharded_batches == 0
                assert stats.plan_shards == 0
                assert stats.seconds_sharding == 0.0
                assert stats.shard_seconds == {}
            engine.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    @pytest.mark.parametrize("workers", SHARD_COUNTS)
    def test_batch_shape_books_its_path(self, backend, shape, workers):
        table = selection_table(60)
        queries = shaped_batch(shape)
        expected = serial_engine(table, backend).execute_batch(queries)
        engine = sharded_engine(table, backend, workers)
        try:
            assert_batches_match(backend, engine.execute_batch(queries), expected)
            stats = engine.stats
            if not pooled(shape, workers):
                assert stats.sharded_batches == 0
                assert stats.plan_shards == 0
                assert stats.shard_seconds == {}
                return
            assert stats.sharded_batches == 1
            assert stats.plan_shards >= SHAPE_PLANS[shape]
            if shape == "skewed":
                # The heavy plan exceeds the per-worker load: split into
                # aggregate-spec units, so there are more units than plans.
                assert stats.plan_shards > SHAPE_PLANS[shape]
            # LPT hands every usable slot a unit: one shard section per slot.
            busy = min(workers, stats.plan_shards)
            assert set(stats.shard_seconds) == {f"w{slot}" for slot in range(busy)}
        finally:
            engine.close()


plan_loads = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=200)),
    min_size=1,
    max_size=8,
)


class TestPlanScheduling:
    """The scheduler's two steps, directly: aggregate-spec splitting of
    heavy plans and longest-processing-time-first slot assignment."""

    def scheduler(self, workers: int) -> ShardScheduler:
        return ShardScheduler(sharded_engine(selection_table(10), "numpy", workers), workers)

    def units_for(self, scheduler, loads):
        plans = [SimpleNamespace(aggregates=tuple(range(n_specs))) for n_specs, _ in loads]
        contexts = [{"row_idx": np.arange(rows)} for _, rows in loads]
        return scheduler._split_units(plans, contexts)

    @given(loads=plan_loads, workers=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_split_units_cover_every_spec_once(self, loads, workers):
        units = self.units_for(self.scheduler(workers), loads)
        costs = [rows * n_specs + 1.0 for n_specs, rows in loads]
        target = sum(costs) / workers
        for i, (n_specs, _rows) in enumerate(loads):
            ranges = [(lo, hi) for plan, lo, hi, _cost in units if plan == i]
            assert ranges[0][0] == 0 and ranges[-1][1] == n_specs
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            assert all(hi > lo for lo, hi in ranges)
            if costs[i] <= target:
                assert len(ranges) == 1  # light plans stay whole
            assert len(ranges) <= n_specs
        assert sum(unit[3] for unit in units) == pytest.approx(sum(costs))

    @given(
        costs=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=20),
        workers=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_lpt_assignment_is_balanced_and_deterministic(self, costs, workers):
        scheduler = self.scheduler(workers)
        units = [(i, 0, 1, cost) for i, cost in enumerate(costs)]
        assignments = scheduler._assign_units(units)
        assert assignments == scheduler._assign_units(list(reversed(units)))
        assert len(assignments) == min(workers, len(units))
        assert all(assignments)  # every usable slot gets work
        assert sorted(unit for chunk in assignments for unit in chunk) == sorted(units)
        loads = [sum(unit[3] for unit in chunk) for chunk in assignments]
        # Greedy-to-the-least-loaded bound: the busiest slot exceeds the
        # idlest by at most one unit.
        assert max(loads) - min(loads) <= max(costs) * (1 + 1e-12)

    def test_single_worker_never_pools(self):
        scheduler = self.scheduler(1)
        assert not scheduler.plan_parallel_active(1)
        assert not scheduler.plan_parallel_active(5)
        assert not self.scheduler(4).plan_parallel_active(1)
        assert self.scheduler(4).plan_parallel_active(2)


class TestShardStats:
    def table(self):
        rng = np.random.default_rng(1)
        return Table(
            [
                Column("key", rng.integers(0, 8, size=80).astype(np.float64), dtype=DType.NUMERIC),
                Column("cat", [str(c) for c in rng.choice(list("abc"), size=80)], dtype=DType.CATEGORICAL),
                Column("val", rng.normal(size=80), dtype=DType.NUMERIC),
            ]
        )

    def batch(self):
        return [
            PredicateAwareQuery(func, "val", ("key",), {"cat": value}, {"cat": DType.CATEGORICAL})
            for value in "abc"
            for func in ("SUM", "MEDIAN")
        ]

    def test_plan_sharding_books_observability_counters(self):
        engine = sharded_engine(self.table(), "numpy", 3)
        engine.execute_batch(self.batch())
        stats = engine.stats
        assert stats.workers == 3
        assert stats.sharded_batches == 1
        # Three fused plans, all dispatched; heavy plans may split into
        # aggregate-spec units, so the unit count can exceed the plan count.
        assert stats.plan_shards >= 3
        assert stats.seconds_sharding > 0.0
        assert stats.shard_seconds and all(k.startswith("w") for k in stats.shard_seconds)
        assert 0.0 < stats.worker_utilisation <= 1.0
        assert stats.as_dict()["worker_utilisation"] == stats.worker_utilisation

    def test_stats_counters_identical_serial_vs_sharded(self):
        """The determinism contract: int counters match at any worker count."""
        table = self.table()
        counter_names = (
            "queries", "batches", "batched_queries", "empty_results",
            "mask_hits", "mask_misses", "mask_evictions",
            "result_hits", "result_misses",
            "group_index_builds", "group_index_reuses",
        )
        baselines = None
        for workers in (1, 4):
            engine = sharded_engine(table, "numpy", workers)
            engine.execute_batch(self.batch())
            engine.execute_batch(self.batch())  # second pass: result-cache hits
            counts = {name: getattr(engine.stats, name) for name in counter_names}
            if baselines is None:
                baselines = counts
            else:
                assert counts == baselines

    def test_delta_since_carries_workers_and_utilisation(self):
        engine = sharded_engine(self.table(), "numpy", 2)
        baseline = engine.stats.as_dict()
        engine.execute_batch(self.batch())
        delta = engine.stats.delta_since(baseline)
        assert delta["workers"] == 2
        assert delta["sharded_batches"] == 1
        assert 0.0 <= delta["worker_utilisation"] <= 1.0

    def test_reset_preserves_workers_identity(self):
        engine = sharded_engine(self.table(), "numpy", 2)
        engine.execute_batch(self.batch())
        engine.stats.reset()
        assert engine.stats.workers == 2
        assert engine.stats.sharded_batches == 0
        assert engine.stats.shard_seconds == {}
