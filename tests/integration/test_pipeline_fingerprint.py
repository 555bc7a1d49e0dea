"""Pipeline fingerprint: one seeded FeatAug run must not depend on how the
query engine executes it.

The fingerprint of a run is the SQL of the selected queries plus the
generated feature matrix.  For each search batch size, every execution
config -- backend x engine workers x incremental refresh -- must reproduce
the numpy / 1 worker / incremental-off reference: identical SQL, feature
values bit-identical on the in-process backends and within 1e-9 on sqlite.

The reference's own digest is pinned as a literal, so a change anywhere in
the pipeline (pool build, TPE proposal, engine, gather, scoring) that moves
the output fails here.  A change that moves the output on purpose (e.g. a
new TPE RNG stream) re-pins these literals and says why.  The digests
depend on numpy's floating-point results and may need re-pinning on a
different numpy build.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import FeatAugConfig
from repro.core.feataug import FeatAug
from repro.datasets import load_dataset

DATASETS = ("student", "merchant")
BATCH_SIZES = (1, 4)
REFERENCE = ("numpy", 1, False)
CONFIGS = [
    (backend, workers, incremental)
    for backend in ("numpy", "python", "sqlite")
    for workers in (1, 2)
    for incremental in (False, True)
    if (backend, workers, incremental) != REFERENCE
]

#: sha256 of the reference run's fingerprint (see :func:`digest`).
PINNED = {
    ("student", 1): "44339eab4e62e249f7fc524800067946b68b42b73d0c7fe073128892dcbf87f3",
    ("student", 4): "91542718e514e99993a79c8d7cc89794dee42ea5a280d1b0c938399ddfdff1f6",
    ("merchant", 1): "6b261af7675e09f0dd1436689d73de1c403e73d349a889d8dea754d10affe9cb",
    ("merchant", 4): "f84b1bef18208cfe62dc67abb3465da687d6921824e52b717b342a9857007289",
}


def run_pipeline(dataset, batch_size, backend, workers, incremental):
    """``(selected SQL, feature matrix)`` of one seeded run at scale 0.25."""
    bundle = load_dataset(dataset, scale=0.25, seed=0)
    config = FeatAugConfig(
        n_templates=2,
        queries_per_template=2,
        warmup_iterations=6,
        search_iterations=4,
        search_batch_size=batch_size,
        engine_backend=backend,
        engine_workers=workers,
        engine_incremental=incremental,
        seed=0,
    )
    feataug = FeatAug(
        label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR", config=config
    )
    result = feataug.augment(
        bundle.train,
        bundle.relevant,
        candidate_attrs=bundle.candidate_attrs,
        agg_attrs=bundle.agg_attrs,
        n_features=4,
    )
    matrix = np.column_stack(
        [
            np.asarray(result.augmented_table.column(name).values, dtype=np.float64)
            for name in result.feature_names
        ]
    )
    return result.sql(), matrix


def digest(sql, matrix) -> str:
    """sha256 over the SQL strings and the matrix bytes, with every NaN
    written as the one quiet NaN and -0.0 as 0.0 (value identity, not NaN
    payload or zero sign)."""
    canonical = np.where(np.isnan(matrix), np.nan, matrix) + 0.0
    h = hashlib.sha256()
    h.update("\n".join(sql).encode())
    h.update(np.ascontiguousarray(canonical).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def references():
    """The reference run per (dataset, batch size), computed once."""
    return {
        (dataset, batch_size): run_pipeline(dataset, batch_size, *REFERENCE)
        for dataset in DATASETS
        for batch_size in BATCH_SIZES
    }


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("dataset", DATASETS)
def test_reference_matches_pinned_digest(references, dataset, batch_size):
    sql, matrix = references[dataset, batch_size]
    assert matrix.shape[1] == 4
    assert digest(sql, matrix) == PINNED[dataset, batch_size]


@pytest.mark.parametrize("backend, workers, incremental", CONFIGS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("dataset", DATASETS)
def test_execution_config_reproduces_reference(
    references, dataset, batch_size, backend, workers, incremental
):
    ref_sql, ref_matrix = references[dataset, batch_size]
    sql, matrix = run_pipeline(dataset, batch_size, backend, workers, incremental)
    assert sql == ref_sql
    assert matrix.shape == ref_matrix.shape
    if backend == "sqlite":
        assert np.array_equal(np.isnan(matrix), np.isnan(ref_matrix))
        assert np.allclose(matrix, ref_matrix, rtol=0.0, atol=1e-9, equal_nan=True)
    else:
        assert np.array_equal(matrix.view(np.uint64), ref_matrix.view(np.uint64))
