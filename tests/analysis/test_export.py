"""CSV export round trips."""

import pytest

from repro.analysis.export import read_csv_rows, write_rows_csv


class TestWriteRows:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        assert write_rows_csv(("a", "b"), [(1, "x"), (2, "y")], path) == 2
        headers, rows = read_csv_rows(path)
        assert headers == ["a", "b"]
        assert rows == [["1", "x"], ["2", "y"]]

    def test_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="row 0"):
            write_rows_csv(("a", "b"), [(1,)], tmp_path / "t.csv")

    def test_empty_rows_ok(self, tmp_path):
        path = tmp_path / "t.csv"
        assert write_rows_csv(("a",), [], path) == 0
        headers, rows = read_csv_rows(path)
        assert headers == ["a"] and rows == []


