"""Tests of the benchmark's own logic: percentiles, span arithmetic, seeded
inputs, output checks and the metric list.  No workload is measured here."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.ledger import Ledger, Tracer, covered_length, self_times, tail_percentile
from perfbench.workloads import (
    AugmentCsvLarge,
    SearchSmall,
    ServeAppend,
    Step,
    bit_equal,
    derive_seed,
)
from repro.dataframe.column import Column


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [11, 12, 19, 60, 199, 200, 201, 999, 1000, 5000])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    p, value = tail_percentile(samples)
    beyond = sum(s > value for s in samples)
    assert beyond >= 10
    if p < 99:
        # One percentile higher would leave fewer than ten samples beyond.
        rank = -(-(p + 1) * n // 100)
        assert n - rank < 10


def test_tail_percentile_named_values():
    assert tail_percentile(list(range(200)))[0] == 95
    assert tail_percentile(list(range(60))) == (83, 49)
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile([]) is None


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        ["op", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([], 0, 10) == 0


class _Layer:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.tick(1)
        self.inner()
        self.clock.tick(2)

    def inner(self):
        self.clock.tick(3)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def tick(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def test_tracer_wraps_records_and_restores():
    clock = _Clock()
    layer = _Layer(clock)
    original = _Layer.inner
    tracer = Tracer(clock=clock)
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner", count=lambda a, k, r: ("inner.things", 2))
    try:
        layer.outer()  # outside an op: not recorded
        with tracer.op("read"):
            layer.outer()
            clock.tick(4)
    finally:
        tracer.uninstall()
    assert _Layer.inner is original and "outer" in vars(_Layer)
    ledger = tracer.ledger()
    assert ledger.op_seconds() == [10.0]
    assert ledger.self_by_name("read") == {"op": 4.0, "outer": 3.0, "inner": 3.0}
    assert tracer.counts["inner.calls"] == 1 and tracer.counts["inner.things"] == 2
    assert ledger.double_counted() == []


def test_double_counting_is_detected():
    ledger = Ledger([["op", 0.0, 1.0, None], ["leaf", 0.0, 2.0, 0]], {0: "op"})
    assert ledger.double_counted() == [0]


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@contextmanager
def _workload(cls, seed, tmp_path, **attrs):
    small = type(cls.__name__, (cls,), attrs)
    workload = small(seed, tmp_path / f"{cls.__name__}-{seed}")
    try:
        yield workload
    finally:
        workload.close()


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(3, 1) == derive_seed(3, 1)
    assert len({derive_seed(s, i) for s in range(5) for i in range(5)}) == 25


def test_same_seed_gives_identical_csv_inputs(tmp_path):
    contents = []
    for seed in (7, 7, 8):
        with _workload(AugmentCsvLarge, seed, tmp_path / str(len(contents)), scale=0.05) as w:
            w.setup(0)
            item = w.inputs[0]
            contents.append((item.train_csv.read_bytes(), item.relevant_csv.read_bytes()))
    assert contents[0] == contents[1]
    assert contents[0] != contents[2]


def _tables_equal(a, b):
    return a.column_names == b.column_names and all(
        list(a.column(n).values) == list(b.column(n).values)
        or bit_equal(a.column(n).values, b.column(n).values)
        for n in a.column_names
    )


def test_same_seed_gives_identical_serve_steps(tmp_path):
    steps = []
    for seed in (5, 5):
        small = dict(scale=0.05, n_servers=1, setup_reps=1, batch_rows=32)
        with _workload(ServeAppend, seed, tmp_path / str(len(steps)), **small) as w:
            assert w.setup(0) == []
            steps.append([w.prepare(i) for i in range(4)])
    for a, b in zip(*steps):
        assert a.kind == b.kind
        assert _tables_equal(a.payload[1], b.payload[1])
        assert (a.payload[2] is None) == (b.payload[2] is None)
        if a.payload[2] is not None:
            assert _tables_equal(a.payload[2], b.payload[2])
    assert [s.kind for s in steps[0]] == ["read", "read", "read", "write"]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class _Corrupting(SearchSmall):
    """Search op whose first feature column gets one value changed."""

    scale = 0.05

    def run(self, step):
        method_result, (train, relevant, result) = super().run(step)
        name = result.feature_names[0]
        values = result.augmented_table.column(name).values.copy()
        values[0] = 0.0 if np.isnan(values[0]) else np.nextafter(values[0], np.inf)
        result.augmented_table = result.augmented_table.with_column(Column(name, values))
        return method_result, (train, relevant, result)


def test_corrupted_feature_column_counts_as_failed_op(tmp_path):
    clean, corrupt = run.Window(), run.Window()
    with _workload(SearchSmall, 1, tmp_path, scale=0.05) as w:
        run.run_step(w, w.prepare(0), clean)
    with _workload(_Corrupting, 1, tmp_path) as w:
        run.run_step(w, w.prepare(0), corrupt)
    assert (clean.attempted, clean.failed) == (1, 0)
    assert (corrupt.attempted, corrupt.failed) == (1, 1)
    assert "feataug_0 differs" in corrupt.problems[0]
    assert not corrupt.samples


def test_bit_equal_is_nan_equal_and_sign_exact():
    assert bit_equal(np.array([1.0, np.nan]), np.array([1.0, np.nan]))
    assert not bit_equal(np.array([0.0]), np.array([-0.0]))
    assert not bit_equal(np.array([1.0]), np.array([1.0, 2.0]))


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def test_repeat_costs_use_each_class_lower_quartile():
    window = run.Window()
    window.ops = [("a", 5.0), ("b", 7.0), ("a", 1.0), ("a", 3.0), ("a", 2.0), ("a", 4.0)]
    assert run.repeat_costs(window) == [2.0, 7.0, 2.0, 2.0, 2.0, 2.0]


class _Instant:
    """Ops that take no time, in cycles of three classes."""

    cycle_ops = 3

    def __init__(self):
        self.suggestions = type("Count", (), {"count": 0})()

    def op_class(self, step):
        return step.index % self.cycle_ops

    def prepare(self, index):
        return Step(index, "op", None)

    def run(self, step):
        return None

    def check(self, step, output):
        return []


def test_measure_ends_on_a_whole_cycle():
    untraced, _, _ = run.measure(_Instant(), 1e-9)
    assert [key for key, _ in untraced.ops] == [0, 1, 2]


# ----------------------------------------------------------------------
# The metric list
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_metrics_the_runner_emits():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {
        SearchSmall.name, AugmentCsvLarge.name, ServeAppend.name
    }
