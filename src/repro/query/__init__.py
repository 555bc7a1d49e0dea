"""Predicate-aware SQL query layer.

Implements the paper's core abstractions (Section III):

* :class:`QueryTemplate` -- the quadruple ``T = (F, A, P, K)``.
* :class:`PredicateAwareQuery` -- one concrete query drawn from a template's
  pool, with its vector encoding (Section V.A).
* :class:`QueryPool` -- builds the HPO search space for a template against a
  concrete relevant table and converts points back into executable queries.
* :class:`QueryPlan` -- the frozen logical plan IR (predicate atoms, group-by
  keys, aggregate specs) that :meth:`QueryEngine.plan` lowers queries into.
* :class:`QueryEngine` -- the batched execution engine bound to one relevant
  table: factorized group index, LRU predicate-mask / result caches and a
  batched API with cache statistics (:class:`EngineStats`).  Construction is
  configured by :class:`EngineConfig` (execution backend, cache sizes,
  worker count).
* :class:`ExecutionBackend` / :func:`register_backend` -- the pluggable
  execution layer plans are delegated to: ``"numpy"`` (vectorized grouped
  kernels, the default), ``"python"`` (per-group reference loop) and
  ``"sqlite"`` (generated SQL over an in-memory database) ship built in;
  third-party backends register under their own name.
* :class:`ShardScheduler` (:mod:`repro.query.sharding`) -- the engine's one
  parallel path: with ``EngineConfig(num_workers > 1)`` a batch of two or
  more fused plans is partitioned across a thread pool of per-worker
  backend instances, bit-identical to serial execution.
* :func:`execute_query` / :func:`augment_training_table` -- the relational
  plumbing (filter -> group-by aggregate -> left join onto the training
  table); :func:`execute_query_naive` is the uncached reference
  implementation the equivalence suite checks every backend against.
"""

from repro.query.template import QueryTemplate, enumerate_attribute_combinations
from repro.query.query import PredicateAwareQuery
from repro.query.pool import QueryPool
from repro.query.plan import AggregateSpec, PredicateAtom, QueryPlan
from repro.query.backends import (
    ExecutionBackend,
    backend_names,
    make_backend,
    register_backend,
)
from repro.query.engine import (
    CacheBudget,
    EngineConfig,
    EngineStats,
    QueryEngine,
    default_backend_name,
    engine_for,
    resolve_engine,
)
from repro.query.sharding import ShardScheduler, default_worker_count, split_ranges
from repro.query.executor import execute_query, execute_query_naive
from repro.query.augment import augment_training_table, apply_queries
from repro.query.multi_table import (
    RelationalSchema,
    Relationship,
    flatten_relevant_tables,
    flatten_to_engine,
)

__all__ = [
    "QueryTemplate",
    "enumerate_attribute_combinations",
    "PredicateAwareQuery",
    "QueryPool",
    "QueryPlan",
    "PredicateAtom",
    "AggregateSpec",
    "ExecutionBackend",
    "register_backend",
    "make_backend",
    "backend_names",
    "QueryEngine",
    "EngineConfig",
    "EngineStats",
    "CacheBudget",
    "default_backend_name",
    "engine_for",
    "resolve_engine",
    "ShardScheduler",
    "default_worker_count",
    "split_ranges",
    "execute_query",
    "execute_query_naive",
    "augment_training_table",
    "apply_queries",
    "RelationalSchema",
    "Relationship",
    "flatten_relevant_tables",
    "flatten_to_engine",
]
