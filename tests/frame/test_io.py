"""Unit tests for NPZ/CSV persistence."""

import csv

import numpy as np
import pytest

from repro.frame import Table, save_npz, load_npz, write_csv


def make():
    return Table(
        {
            "i": np.array([1, -2, 3], dtype=np.int64),
            "f": np.array([1.5, np.nan, -2.25]),
            "s": np.array(["abc", "", "z9"]),
            "b": np.array([True, False, True]),
        }
    )


class TestNpz:
    def test_roundtrip(self, tmp_path):
        t = make()
        n = save_npz(t, tmp_path / "t.npz")
        assert n > 0
        assert load_npz(tmp_path / "t.npz") == t

    def test_preserves_dtypes(self, tmp_path):
        t = make()
        save_npz(t, tmp_path / "t.npz")
        out = load_npz(tmp_path / "t.npz")
        assert out["i"].dtype == np.int64
        assert out["b"].dtype == np.bool_

    def test_creates_parent_dirs(self, tmp_path):
        save_npz(make(), tmp_path / "a" / "b" / "t.npz")
        assert (tmp_path / "a" / "b" / "t.npz").exists()


class TestCsv:
    """CSV is write-only: these read the file back with the stdlib."""

    @staticmethod
    def rows(path):
        with open(path, newline="") as f:
            return list(csv.reader(f))

    def test_roundtrip(self, tmp_path):
        t = Table(
            {
                "i": np.array([1, 2], dtype=np.int64),
                "f": np.array([1.5, -0.25]),
                "s": np.array(["x", "yz"]),
            }
        )
        write_csv(t, tmp_path / "t.csv")
        assert self.rows(tmp_path / "t.csv") == [
            ["i", "f", "s"], ["1", "1.5", "x"], ["2", "-0.25", "yz"],
        ]

    def test_float_precision(self, tmp_path):
        t = Table({"f": np.array([1.0 / 3.0, 1e-17])})
        write_csv(t, tmp_path / "t.csv")
        _, *body = self.rows(tmp_path / "t.csv")
        assert np.array_equal([float(v) for v, in body], t["f"])

    def test_rejects_commas_in_strings(self, tmp_path):
        t = Table({"s": np.array(["a,b"])})
        with pytest.raises(ValueError, match="delimiters"):
            write_csv(t, tmp_path / "t.csv")

    def test_empty_table_roundtrip(self, tmp_path):
        t = Table({"a": np.empty(0, np.int64)})
        write_csv(t, tmp_path / "t.csv")
        assert self.rows(tmp_path / "t.csv") == [["a"]]
