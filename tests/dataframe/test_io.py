"""Unit tests for CSV input/output."""

import numpy as np
import pytest

from repro.dataframe.column import DType
from repro.dataframe.io import read_csv, write_csv
from repro.dataframe.table import Table


@pytest.fixture
def table():
    return Table.from_dict(
        {
            "name": ["alice", "bob", None],
            "amount": [10.5, None, 3.25],
            "when": ["2023-01-01", "2023-06-15 12:30:00", None],
            "count": [1.0, 2.0, 3.0],
        },
        dtypes={"when": DType.DATETIME},
    )


class TestRoundTrip:
    def test_roundtrip_preserves_shape(self, table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.shape == table.shape

    def test_roundtrip_preserves_dtypes(self, table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.column("name").dtype is DType.CATEGORICAL
        assert loaded.column("amount").dtype is DType.NUMERIC
        assert loaded.column("when").dtype is DType.DATETIME

    def test_roundtrip_preserves_values(self, table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.column("amount").values[0] == 10.5
        assert np.isnan(loaded.column("amount").values[1])
        assert loaded.column("name").values[2] is None

    def test_roundtrip_datetime_values(self, table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.column("when").values[0] == table.column("when").values[0]
        assert np.isnan(loaded.column("when").values[2])

    def test_write_creates_parent_dirs(self, table, tmp_path):
        path = tmp_path / "nested" / "dir" / "data.csv"
        write_csv(table, path)
        assert path.exists()


class TestInference:
    def test_numeric_inference(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("a,b\n1,x\n2.5,y\n")
        loaded = read_csv(path)
        assert loaded.column("a").dtype is DType.NUMERIC
        assert loaded.column("b").dtype is DType.CATEGORICAL

    def test_missing_token_handling(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("a\n1\n\nNA\n")
        loaded = read_csv(path)
        assert loaded.column("a").null_count() == 2

    def test_forced_dtype(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("id\n1\n2\n")
        loaded = read_csv(path, dtypes={"id": DType.CATEGORICAL})
        assert loaded.column("id").dtype is DType.CATEGORICAL

    def test_datetime_inference(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("t\n2023-01-01\n2023-02-03\n")
        loaded = read_csv(path)
        assert loaded.column("t").dtype is DType.DATETIME

    def test_row_longer_than_header_raises_with_its_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        # The quoted field spans lines 3-4, so the over-long row is on line 5.
        path.write_text('uid,amt\nu1,1\n"u\n2",3\nu3,1,99\n')
        with pytest.raises(ValueError, match=r"wide\.csv: line 5 has 3 fields but the header has 2"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert read_csv(path).num_rows == 0
