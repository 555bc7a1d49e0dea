"""Unit tests for the FeatAug facade."""

import numpy as np
import pytest

import repro.core.feataug as feataug_module
from repro.core.config import FeatAugConfig
from repro.core.feataug import FeatAug


@pytest.fixture
def facade(tiny_student, fast_config):
    bundle = tiny_student
    return FeatAug(
        label=bundle.label_col,
        keys=bundle.keys,
        task=bundle.task,
        model="LR",
        config=fast_config,
    )


class TestFeatAugFacade:
    def test_augment_with_template_identification(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            candidate_attrs=bundle.candidate_attrs, agg_attrs=bundle.agg_attrs,
        )
        assert len(result.queries) >= 1
        assert result.augmented_table.num_rows == bundle.train.num_rows
        for name in result.feature_names:
            assert name in result.augmented_table

    def test_augment_with_explicit_template_skips_qti(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type", "level"], agg_attrs=bundle.agg_attrs,
        )
        assert result.qti_seconds == 0.0
        assert len(result.templates) == 1
        assert result.templates[0].template.predicate_attrs == ("event_type", "level")

    def test_apply_reproduces_features_on_same_table(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=2,
        )
        reapplied = result.apply(bundle.train)
        for name in result.feature_names:
            original = result.augmented_table.column(name).values
            recomputed = reapplied.column(name).values
            both_nan = np.isnan(original) & np.isnan(recomputed)
            assert np.all((original == recomputed) | both_nan)

    def test_sql_listing(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=2,
        )
        sql = result.sql()
        assert len(sql) == len(result.queries)
        assert all("GROUP BY" in s for s in sql)

    def test_n_features_respected(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            candidate_attrs=bundle.candidate_attrs, agg_attrs=bundle.agg_attrs, n_features=3,
        )
        assert len(result.queries) <= 3

    def test_missing_attrs_raises(self, facade, tiny_student):
        bundle = tiny_student
        with pytest.raises(ValueError):
            facade.augment(bundle.train, bundle.relevant)

    def test_no_qti_config_requires_candidate_attrs(self, tiny_student, fast_config):
        bundle = tiny_student
        feataug = FeatAug(
            label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR",
            config=fast_config.with_overrides(use_template_identification=False),
        )
        result = feataug.augment(
            bundle.train, bundle.relevant,
            candidate_attrs=bundle.candidate_attrs, agg_attrs=bundle.agg_attrs, n_features=2,
        )
        # Without QTI all candidate attributes form a single template.
        assert len(result.templates) == 1
        assert set(result.templates[0].template.predicate_attrs) == set(bundle.candidate_attrs)

    def test_default_agg_attrs_are_numeric_columns(self, tiny_student, fast_config):
        bundle = tiny_student
        feataug = FeatAug(
            label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR", config=fast_config
        )
        result = feataug.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], n_features=2,
        )
        numeric = {
            n for n in bundle.relevant.column_names
            if n not in bundle.keys and bundle.relevant.column(n).is_numeric_like
        }
        assert set(result.templates[0].template.agg_attrs) == numeric

    def test_engine_stats_expose_backend(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=2,
        )
        from repro.query.engine import default_backend_name

        assert result.engine_stats["backend"] == default_backend_name()
        # The engine is shared per table, so earlier runs may have warmed the
        # result cache: count executed and cache-served queries together.
        assert result.engine_stats["queries"] + result.engine_stats["result_hits"] > 0
        assert default_backend_name() in result.engine_stats["backend_seconds"]

    def test_engine_backend_config_selects_the_backend(self, tiny_student, fast_config):
        """FeatAugConfig.engine_backend is threaded through to the engine."""
        bundle = tiny_student
        feataug = FeatAug(
            label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR",
            config=fast_config.with_overrides(engine_backend="python"),
        )
        # Engines are shared per relevant-table object: a copy gets a cold
        # engine, so the run executes queries instead of serving every one
        # from a result cache an earlier test warmed on the same backend.
        result = feataug.augment(
            bundle.train, bundle.relevant.copy(),
            predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs, n_features=1,
        )
        assert result.engine_stats["backend"] == "python"
        assert result.engine_stats["backend_seconds"].get("python", 0.0) > 0.0

    def test_unknown_engine_backend_rejected(self, fast_config):
        with pytest.raises(ValueError):
            fast_config.with_overrides(engine_backend="duckdb")

    def test_engine_workers_config_is_threaded_and_exact(self, tiny_student, fast_config):
        """FeatAugConfig.engine_workers reaches the engine, and a sharded run
        selects exactly the features the serial run selects (the search
        trajectory is bit-identical under sharding)."""
        bundle = tiny_student

        def run(config):
            feataug = FeatAug(
                label=bundle.label_col, keys=bundle.keys, task=bundle.task,
                model="LR", config=config,
            )
            return feataug.augment(
                bundle.train, bundle.relevant,
                predicate_attrs=["event_type"], agg_attrs=bundle.agg_attrs,
                n_features=2,
            )

        serial = run(fast_config.with_overrides(engine_workers=1))
        sharded = run(fast_config.with_overrides(engine_workers=2))
        assert sharded.engine_stats["workers"] == 2
        assert [g.query.signature() for g in sharded.queries] == [
            g.query.signature() for g in serial.queries
        ]
        for name in serial.feature_names:
            a = serial.augmented_table.column(name).values
            b = sharded.augmented_table.column(name).values
            assert np.array_equal(a, b, equal_nan=True)

    def test_invalid_engine_workers_rejected(self, fast_config):
        with pytest.raises(ValueError, match="num_workers"):
            fast_config.with_overrides(engine_workers=0)

    def test_timings_accumulate(self, facade, tiny_student):
        bundle = tiny_student
        result = facade.augment(
            bundle.train, bundle.relevant,
            candidate_attrs=bundle.candidate_attrs, agg_attrs=bundle.agg_attrs, n_features=2,
        )
        assert result.qti_seconds > 0
        assert result.warmup_seconds > 0
        assert result.generate_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.qti_seconds + result.warmup_seconds + result.generate_seconds
        )

    def test_regression_task(self, tiny_merchant, fast_config):
        bundle = tiny_merchant
        feataug = FeatAug(
            label=bundle.label_col, keys=bundle.keys, task=bundle.task, model="LR", config=fast_config
        )
        result = feataug.augment(
            bundle.train, bundle.relevant,
            candidate_attrs=bundle.candidate_attrs, agg_attrs=bundle.agg_attrs, n_features=2,
        )
        assert len(result.queries) >= 1
        assert all(np.isfinite(g.loss) for g in result.queries)

    def test_string_model_name_accepted(self, tiny_student, fast_config):
        bundle = tiny_student
        feataug = FeatAug(label=bundle.label_col, keys=bundle.keys, task="binary", model="RF", config=fast_config)
        assert feataug.model is not None


class TestInputColumns:
    """``augment`` rejects a missing input column before any search work,
    with a ``ValueError`` naming the table and the column."""

    @pytest.fixture
    def no_engine(self, monkeypatch):
        """Fail the test if ``augment`` gets as far as resolving an engine
        (the first step of building pools and searching)."""

        def forbidden(*args, **kwargs):
            raise AssertionError("augment started searching on bad input")

        monkeypatch.setattr(feataug_module, "engine_for", forbidden)

    @pytest.mark.parametrize(
        "table, drop, match",
        [
            ("train", "session_id", "join key 'session_id' is not a column of the train table"),
            ("relevant", "session_id", "join key 'session_id' is not a column of the relevant table"),
            ("train", "label", "label 'label' is not a column of the train table"),
            ("relevant", "event_type", "candidate attribute 'event_type' is not a column of the relevant table"),
            ("relevant", "hover_duration", "aggregation attribute 'hover_duration' is not a column of the relevant table"),
        ],
    )
    def test_missing_column_fails_before_searching(
        self, facade, tiny_student, no_engine, table, drop, match
    ):
        bundle = tiny_student
        train, relevant = bundle.train, bundle.relevant
        if table == "train":
            train = train.drop(drop)
        else:
            relevant = relevant.drop(drop)
        with pytest.raises(ValueError, match=match):
            facade.augment(
                train, relevant,
                candidate_attrs=["event_type", "level"], agg_attrs=["hover_duration"],
            )

    def test_missing_predicate_attr_fails_before_searching(
        self, facade, tiny_student, no_engine
    ):
        bundle = tiny_student
        with pytest.raises(
            ValueError, match="predicate attribute 'nope' is not a column of the relevant table"
        ):
            facade.augment(bundle.train, bundle.relevant, predicate_attrs=["level", "nope"])
