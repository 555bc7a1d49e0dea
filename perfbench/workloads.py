"""The benchmark's workloads, their output checks and the layer wrappers.

Every input derives from the workload seed.  Each workload draws several
inputs from it (one dataset per op on ``search-small``, three CSV pairs on
``augment-csv-large``, seven served searches on ``serve-append``), so the
figures of one run cover several datasets rather than the cost of one lucky
or unlucky draw.

The search configuration is the ``repro.cli run`` default; with the
``REPRO_ENGINE_*`` variables removed by ``run.py`` the engine resolves to the
serial numpy backend.
"""

from __future__ import annotations

import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import FeatAugConfig
from repro.core.evaluation import ModelEvaluator
from repro.core.feataug import FeatAug, FeatAugResult
from repro.core.proxies import Proxy
from repro.core.sql_generation import SQLQueryGenerator
from repro.core.template_identification import QueryTemplateIdentifier
from repro.dataframe import io as csv_io
from repro.dataframe.table import Table
from repro.datasets import load_dataset
from repro.experiments.runner import run_method
from repro.hpo.tpe import TPEOptimizer
from repro.ml.model_zoo import make_model
from repro.ml.preprocessing import train_valid_test_split
from repro.query.augment import augment_training_table
from repro.query.engine import QueryEngine
from repro.query.executor import execute_query_naive
from repro.query.pool import QueryPool

from perfbench.ledger import Patches, Tracer

#: ``repro.cli run`` defaults (``--n-features`` is 12, the model LR).
CLI_DEFAULTS = dict(
    n_templates=4,
    queries_per_template=3,
    warmup_iterations=30,
    search_iterations=12,
    proxy="mi",
    search_batch_size=1,
)
N_FEATURES = 12
MODEL = "LR"


def derive_seed(seed: int, index: int) -> int:
    """The seed of input *index* of a workload run with *seed*."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % (2**31 - 1))


def cli_config(seed: int) -> FeatAugConfig:
    return FeatAugConfig(**CLI_DEFAULTS, seed=seed)


def loss_of(metric_name: str, metric: float) -> float:
    """The search's loss for a reported metric (1-AUC, 1-F1 or RMSE)."""
    return metric if metric_name == "rmse" else 1.0 - metric


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def bit_equal(actual, expected) -> bool:
    """Bit-for-bit equality of two float columns, NaN equal to NaN."""
    a = np.asarray(actual)
    b = np.asarray(expected)
    if a.dtype != np.float64 or b.dtype != np.float64 or a.shape != b.shape:
        return False
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return bool(
        np.array_equal(nan_a, nan_b)
        and np.array_equal(a[~nan_a].view(np.int64), b[~nan_b].view(np.int64))
    )


def feature_mismatches(
    augmented: Table,
    base: Table,
    relevant: Table,
    queries: Sequence,
    prefix: str,
) -> List[str]:
    """Feature columns of *augmented* that differ from the reference path:
    ``execute_query_naive`` on *relevant*, then ``augment_training_table``
    onto *base*."""
    bad = []
    for i, query in enumerate(queries):
        name = f"{prefix}_{i}"
        reference = augment_training_table(
            base, execute_query_naive(query, relevant), query.keys, query.feature_name, name
        )
        if name not in augmented or not bit_equal(
            augmented.column(name).values, reference.column(name).values
        ):
            bad.append(name)
    return bad


def fingerprint(queries: Sequence, test_loss: float) -> tuple:
    return tuple(q.signature() for q in queries), test_loss


class Fingerprints:
    """Same inputs must give the same selected queries and test loss."""

    def __init__(self):
        self._seen: Dict[object, tuple] = {}

    def check(self, key, value: tuple) -> List[str]:
        first = self._seen.setdefault(key, value)
        return [] if first == value else [f"input {key}: selection or test loss differs from an earlier run"]


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def _proxy_classes(cls=Proxy):
    for sub in cls.__subclasses__():
        yield sub
        yield from _proxy_classes(sub)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the ledger reports.

    ``repro.query.augment.augment_training_table`` is deliberately not
    wrapped: ``core/evaluation.py`` imports it by name, so a module-level
    replacement would miss those calls; the join-back is measured at
    ``Table.left_join``, which every caller resolves through the class.
    """
    tracer.wrap(
        TPEOptimizer, "suggest_batch", "hpo.suggest",
        count=lambda args, kwargs, result: ("hpo.candidates", len(result)),
    )
    tracer.wrap(TPEOptimizer, "observe_batch", "hpo.observe")
    tracer.wrap(QueryPool, "__init__", "pool.build")
    tracer.wrap(
        QueryEngine, "execute_batch", "engine.execute",
        count=lambda args, kwargs, result: ("engine.queries", len(result)),
        on_call=lambda args: tracer.see_engine(args[0]),
    )
    tracer.wrap(Table, "left_join", "table.left_join")
    tracer.wrap(Table, "append_rows", "table.append_rows")
    tracer.wrap(
        csv_io, "read_csv", "io.read_csv",
        count=lambda args, kwargs, result: ("io.rows", result.num_rows),
    )
    tracer.wrap(
        csv_io, "write_csv", "io.write_csv",
        count=lambda args, kwargs, result: ("io.rows", args[0].num_rows),
    )
    for cls in _proxy_classes():
        if "score" in vars(cls):
            tracer.wrap(cls, "score", "proxy.score")
    tracer.wrap(ModelEvaluator, "evaluate_matrix", "eval.fit_score")
    tracer.wrap(FeatAugResult, "apply", "feataug.apply")
    tracer.wrap(FeatAug, "augment", "feataug.augment")
    tracer.wrap(QueryTemplateIdentifier, "identify", "qti.identify")
    tracer.wrap(SQLQueryGenerator, "generate", "sqlgen.generate")


class SuggestionCounter:
    """Counts suggestions handed out by ``TPEOptimizer.suggest_batch``
    without reading the clock, so untraced runs can report candidates/s."""

    def __init__(self, patches: Patches):
        self.count = 0
        original = TPEOptimizer.suggest_batch
        counter = self

        def suggest_batch(optimizer, n):
            batch = original(optimizer, n)
            counter.count += len(batch)
            return batch

        patches.set(TPEOptimizer, "suggest_batch", suggest_batch)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Step:
    """One prepared op: its input index, kind and untimed inputs."""

    index: int
    kind: str
    payload: object


class Workload:
    """Set-up repetitions, one warm-up op, then prepare / run / check per op."""

    name = ""
    setup_reps = 3
    #: Ops after which the op classes repeat in the same mix; ``None`` when
    #: every op has an input of its own.  Runs end on a whole cycle.
    cycle_ops: Optional[int] = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.patches = Patches()
        self.fingerprints = Fingerprints()
        self.test_losses: Dict[object, float] = {}
        self.suggestions = SuggestionCounter(self.patches)

    def setup(self, rep: int) -> List[str]:
        """One set-up repetition; returns the problems it found."""
        raise NotImplementedError

    def warmup_steps(self) -> List[Step]:
        return [self.prepare(0)]

    def op_class(self, step: Step):
        """Ops of one class run the same input and cost the same."""
        return step.index

    def prepare(self, index: int) -> Step:
        raise NotImplementedError

    def run(self, step: Step):
        raise NotImplementedError

    def check(self, step: Step, output) -> List[str]:
        raise NotImplementedError

    def test_loss(self) -> float:
        """Median held-out loss over the inputs checked so far (0 if none)."""
        return statistics.median(self.test_losses.values()) if self.test_losses else 0.0

    def close(self) -> None:
        self.patches.restore()


class SearchSmall(Workload):
    """``run_method(student @ 0.25, "FeatAug", "LR")``, a fresh dataset per op."""

    name = "search-small"
    scale = 0.25

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._setup_bundle = None
        self._captured: Optional[tuple] = None
        original = FeatAug.augment
        workload = self

        def augment(feataug, train_table, relevant_table, *args, **kwargs):
            result = original(feataug, train_table, relevant_table, *args, **kwargs)
            workload._captured = (train_table, relevant_table, result)
            return result

        self.patches.set(FeatAug, "augment", augment)

    def _bundle(self, index: int):
        return load_dataset("student", scale=self.scale, seed=derive_seed(self.seed, index))

    def setup(self, rep: int) -> List[str]:
        self._setup_bundle = self._bundle(0)  # the warm-up op's input
        return []

    def prepare(self, index: int) -> Step:
        bundle, self._setup_bundle = self._setup_bundle, None
        if index != 0 or bundle is None:
            bundle = self._bundle(index)
        return Step(index, "search", bundle)

    def run(self, step: Step):
        seed = derive_seed(self.seed, step.index)
        self._captured = None
        result = run_method(
            step.payload, "FeatAug", MODEL, n_features=N_FEATURES, config=cli_config(seed), seed=seed
        )
        return result, self._captured

    def check(self, step: Step, output) -> List[str]:
        method_result, captured = output
        if captured is None:
            return ["FeatAug.augment was not called"]
        train_table, relevant, augmentation = captured
        queries = [g.query for g in augmentation.queries]
        problems = [
            f"feature {name} differs from the reference path"
            for name in feature_mismatches(
                augmentation.augmented_table, train_table, relevant, queries,
                augmentation.feature_prefix,
            )
        ]
        loss = loss_of(method_result.metric_name, method_result.metric)
        self.test_losses[step.index] = loss
        return problems + self.fingerprints.check(step.index, fingerprint(queries, loss))


@dataclass
class CsvInput:
    seed: int
    train_csv: Path
    relevant_csv: Path
    output_csv: Path
    fit: Table
    test: Table


class AugmentCsvLarge(Workload):
    """The ``repro.cli augment`` path on merchant @ 8 (240k relevant rows)."""

    name = "augment-csv-large"
    scale = 8
    keys = ["card_id"]
    label = "label"
    task = "regression"
    cycle_ops = Workload.setup_reps  # one op per CSV pair

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.inputs: List[CsvInput] = []

    def setup(self, rep: int) -> List[str]:
        seed = derive_seed(self.seed, rep)
        bundle = load_dataset("merchant", scale=self.scale, seed=seed)
        fit, valid, test = train_valid_test_split(bundle.train, ratios=(0.6, 0.2, 0.2), seed=seed)
        directory = self.workdir / f"input{rep}"
        directory.mkdir(parents=True, exist_ok=True)
        item = CsvInput(
            seed, directory / "train.csv", directory / "relevant.csv",
            directory / "augmented.csv", fit, test,
        )
        csv_io.write_csv(fit.concat_rows(valid), item.train_csv)
        csv_io.write_csv(bundle.relevant, item.relevant_csv)
        self.inputs.append(item)
        return []

    def prepare(self, index: int) -> Step:
        position = index % len(self.inputs)
        return Step(position, "search", self.inputs[position])

    def run(self, step: Step):
        item: CsvInput = step.payload
        dtypes = {k: "categorical" for k in self.keys}
        train = csv_io.read_csv(item.train_csv, dtypes=dtypes)
        relevant = csv_io.read_csv(item.relevant_csv, dtypes=dtypes)
        candidate_attrs = [c for c in relevant.column_names if c not in self.keys]
        feataug = FeatAug(
            label=self.label, keys=self.keys, task=self.task, model=MODEL,
            config=cli_config(item.seed),
        )
        result = feataug.augment(
            train, relevant, candidate_attrs=candidate_attrs, n_features=N_FEATURES
        )
        csv_io.write_csv(result.augmented_table, item.output_csv)
        return train, relevant, result

    def check(self, step: Step, output) -> List[str]:
        item: CsvInput = step.payload
        train, relevant, result = output
        queries = [g.query for g in result.queries]
        problems = [
            f"feature {name} differs from the reference path"
            for name in feature_mismatches(
                result.augmented_table, train, relevant, queries, result.feature_prefix
            )
        ]
        dtypes = {k: "categorical" for k in self.keys}
        dtypes.update({name: "numeric" for name in result.feature_names})
        written = csv_io.read_csv(item.output_csv, dtypes=dtypes)
        problems += [
            f"written column {name} differs from the augmented table"
            for name in result.feature_names
            if not bit_equal(written.column(name).values, result.augmented_table.column(name).values)
        ]
        loss = held_out_loss(item.fit, item.test, self.label, self.keys, self.task, queries, relevant)
        self.test_losses[step.index] = loss
        return problems + self.fingerprints.check(step.index, fingerprint(queries, loss))

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def held_out_loss(fit: Table, test: Table, label: str, keys, task: str, queries, relevant) -> float:
    """Loss of the downstream model on the test split with the selected
    features, scored the way ``run_method`` scores them."""
    base = [c for c in fit.column_names if c != label and c not in keys]
    evaluator = ModelEvaluator(
        fit, test, label=label, base_features=base, model=make_model(MODEL, task),
        task=task, relevant_table=relevant,
    )
    return evaluator.evaluate_queries(queries, relevant).loss


@dataclass
class Server:
    result: FeatAugResult
    entities: Table
    relevant_rows: int


class ServeAppend(Workload):
    """Serve ``FeatAugResult.apply`` on 256-entity batches, one step in four
    appending 100 event rows first (closed loop, one client)."""

    name = "serve-append"
    scale = 2
    n_servers = 7
    setup_reps = n_servers + 1  # the last repetition repeats the first search
    batch_rows = 256
    append_rows = 100
    write_every = 4
    check_every = 50
    cycle_ops = math.lcm(n_servers, write_every)  # each server: 3 reads and 1 write

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.servers: List[Server] = []

    def setup(self, rep: int) -> List[str]:
        position = rep % self.n_servers
        seed = derive_seed(self.seed, position)
        bundle = load_dataset("student", scale=self.scale, seed=seed)
        fit, valid, test = train_valid_test_split(bundle.train, ratios=(0.6, 0.2, 0.2), seed=seed)
        feataug = FeatAug(
            label=bundle.label_col, keys=bundle.keys, task=bundle.task, model=MODEL,
            config=cli_config(seed),
        )
        result = feataug.augment(
            fit.concat_rows(valid), bundle.relevant, candidate_attrs=bundle.candidate_attrs,
            agg_attrs=bundle.agg_attrs, n_features=N_FEATURES,
        )
        queries = [g.query for g in result.queries]
        loss = held_out_loss(
            fit, test, bundle.label_col, bundle.keys, bundle.task, queries, bundle.relevant
        )
        if rep < self.n_servers:
            self.test_losses[position] = loss
            self.servers.append(Server(result, bundle.train, bundle.relevant.num_rows))
        return self.fingerprints.check(position, fingerprint(queries, loss))

    def warmup_steps(self) -> List[Step]:
        return [
            Step(-1 - k, "read", (server, self._batch(server, derive_seed(self.seed, 1000 + k)), None))
            for k, server in enumerate(self.servers)
        ]

    def _batch(self, server: Server, seed: int) -> Table:
        rng = np.random.default_rng(seed)
        return server.entities.take(
            rng.choice(server.entities.num_rows, size=self.batch_rows, replace=False)
        )

    def _events(self, server: Server, seed: int) -> Table:
        """Seeded event rows, each column drawn from the original rows."""
        rng = np.random.default_rng(seed)
        relevant = server.result.relevant_table
        return Table([
            relevant.column(name).take(rng.integers(0, server.relevant_rows, size=self.append_rows))
            for name in relevant.column_names
        ])

    def op_class(self, step: Step):
        return step.index % self.n_servers, step.kind

    def prepare(self, index: int) -> Step:
        server = self.servers[index % self.n_servers]
        seed = derive_seed(self.seed, 10_000 + index)
        write = index % self.write_every == self.write_every - 1
        events = self._events(server, seed + 1) if write else None
        return Step(index, "write" if write else "read", (server, self._batch(server, seed), events))

    def run(self, step: Step):
        server, batch, events = step.payload
        if events is not None:
            server.result.relevant_table.append_rows(events)
        return server.result.apply(batch)

    def check(self, step: Step, output) -> List[str]:
        if step.index >= 0 and step.index % self.check_every != 3:
            return []
        server, batch, _ = step.payload
        result = server.result
        if output.num_rows != batch.num_rows:
            return ["served table lost rows"]
        return [
            f"served feature {name} differs from the reference path on the grown table"
            for name in feature_mismatches(
                output, batch, result.relevant_table, [g.query for g in result.queries],
                result.feature_prefix,
            )
        ]


WORKLOADS = {cls.name: cls for cls in (SearchSmall, AugmentCsvLarge, ServeAppend)}
