"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.dataframe.io import read_csv, write_csv
from repro.datasets import load_dataset


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--dataset", "student"])
        assert args.method == "FeatAug"
        assert args.model == "LR"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "imagenet"])

    def test_engine_backend_threads_into_config(self):
        from repro.cli import _config_from_args

        args = build_parser().parse_args(
            ["run", "--dataset", "student", "--engine-backend", "sqlite"]
        )
        assert _config_from_args(args).engine_backend == "sqlite"
        # Default: follow the process default (env var / numpy).
        args = build_parser().parse_args(["run", "--dataset", "student"])
        assert _config_from_args(args).engine_backend is None

    def test_unknown_engine_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "student", "--engine-backend", "duckdb"]
            )


class TestCommands:
    def test_datasets_command(self, capsys):
        exit_code = main(["datasets", "--scale", "0.08"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "tmall" in captured.out
        assert "one-to-many" in captured.out

    def test_run_command_base_method(self, capsys):
        exit_code = main(
            ["run", "--dataset", "student", "--method", "Base", "--model", "LR", "--scale", "0.1"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "auc" in captured.out

    def test_augment_command_roundtrip(self, tmp_path, capsys):
        bundle = load_dataset("student", scale=0.1, seed=0)
        train_path = tmp_path / "train.csv"
        relevant_path = tmp_path / "logs.csv"
        output_path = tmp_path / "augmented.csv"
        write_csv(bundle.train, train_path)
        write_csv(bundle.relevant, relevant_path)

        exit_code = main(
            [
                "augment",
                "--train", str(train_path),
                "--relevant", str(relevant_path),
                "--label", "label",
                "--keys", "session_id",
                "--candidate-attrs", "event_type,level",
                "--agg-attrs", "hover_duration",
                "--n-features", "2",
                "--n-templates", "1",
                "--queries-per-template", "2",
                "--warmup-iterations", "5",
                "--search-iterations", "3",
                "--output", str(output_path),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "GROUP BY" in captured.out
        augmented = read_csv(output_path)
        assert augmented.num_rows == bundle.train.num_rows
        assert any(name.startswith("feataug_") for name in augmented.column_names)


class TestAugmentInputErrors:
    """Bad input to ``augment`` exits with code 2 and one error line naming
    the table and the column, before any search work."""

    @pytest.fixture
    def csvs(self, tmp_path):
        bundle = load_dataset("student", scale=0.1, seed=0)
        paths = {
            "train": tmp_path / "train.csv",
            "relevant": tmp_path / "logs.csv",
            "train_renamed_key": tmp_path / "train_renamed_key.csv",
            "relevant_renamed_key": tmp_path / "logs_renamed_key.csv",
        }
        write_csv(bundle.train, paths["train"])
        write_csv(bundle.relevant, paths["relevant"])
        write_csv(bundle.train.rename({"session_id": "uid"}), paths["train_renamed_key"])
        write_csv(bundle.relevant.rename({"session_id": "uid"}), paths["relevant_renamed_key"])
        return paths

    def run_augment(self, capsys, tmp_path, train, relevant, *extra):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "augment",
                    "--train", str(train),
                    "--relevant", str(relevant),
                    "--keys", "session_id",
                    "--output", str(tmp_path / "out.csv"),
                    *extra,
                ]
            )
        assert exit_info.value.code == 2
        assert not (tmp_path / "out.csv").exists()
        error_lines = [
            line for line in capsys.readouterr().err.splitlines() if "error:" in line
        ]
        assert len(error_lines) == 1
        return error_lines[0]

    @pytest.mark.parametrize(
        "train, relevant, label, expected",
        [
            ("train_renamed_key", "relevant", "label", "join key 'session_id' is not a column of the train table"),
            ("train", "relevant_renamed_key", "label", "join key 'session_id' is not a column of the relevant table"),
            ("train", "relevant", "outcome", "label 'outcome' is not a column of the train table"),
        ],
    )
    def test_missing_column_is_a_usage_error(
        self, csvs, capsys, tmp_path, train, relevant, label, expected
    ):
        line = self.run_augment(
            capsys, tmp_path, csvs[train], csvs[relevant], "--label", label
        )
        assert expected in line

    def test_overlong_csv_row_is_a_usage_error(self, csvs, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(csvs["train"].read_text() + "extra,1,2,3,4\n")
        line = self.run_augment(capsys, tmp_path, bad, csvs["relevant"], "--label", "label")
        assert "bad.csv: line" in line and "fields but the header has 4" in line
