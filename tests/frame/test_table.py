"""Unit tests for the Table column store."""

import numpy as np
import pytest

from repro.frame import Table, concat


def make(n=5):
    return Table(
        {
            "k": np.arange(n, dtype=np.int64),
            "v": np.linspace(0.0, 1.0, n),
            "s": np.array([f"x{i}" for i in range(n)]),
        }
    )


class TestConstruction:
    def test_basic(self):
        t = make()
        assert t.n_rows == 5
        assert t.columns == ["k", "v", "s"]
        assert len(t) == 5

    def test_empty_mapping(self):
        t = Table()
        assert t.n_rows == 0
        assert t.columns == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Table({"a": np.arange(3), "b": np.arange(4)})

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            Table({"a": np.zeros((2, 2))})

    def test_to_rows(self):
        t = Table({"a": np.array([1, 3]), "b": np.array([2.5, 4.5])})
        assert t.to_rows() == [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]


class TestAccess:
    def test_getitem_column(self):
        t = make()
        assert np.array_equal(t["k"], np.arange(5))

    def test_getitem_missing_column(self):
        with pytest.raises(KeyError, match="no column"):
            make()["nope"]

    def test_getitem_mask(self):
        t = make()
        sub = t[t["k"] % 2 == 0]
        assert sub.n_rows == 3
        assert np.array_equal(sub["k"], [0, 2, 4])

    def test_getitem_slice(self):
        t = make()
        assert np.array_equal(t[1:3]["k"], [1, 2])

    def test_contains(self):
        assert "k" in make()
        assert "nope" not in make()

    def test_take_allows_repeats(self):
        t = make()
        out = t.take([0, 0, 4])
        assert np.array_equal(out["k"], [0, 0, 4])

    def test_head_tail(self):
        t = make()
        assert t.head(2).n_rows == 2
        assert np.array_equal(t[-2:]["k"], [3, 4])
        assert t[-10:].n_rows == 5


class TestVerbs:
    def test_select_shares_arrays(self):
        t = make()
        s = t.select(["k"])
        assert s.columns == ["k"]
        assert s["k"] is t["k"]

    def test_drop(self):
        assert make().drop(["s"]).columns == ["k", "v"]

    def test_with_column_replace(self):
        t = make().with_column("v", np.zeros(5))
        assert t["v"].sum() == 0

    def test_with_column_scalar_broadcast(self):
        t = make().with_column("c", np.float64(2.5))
        assert np.all(t["c"] == 2.5)

    def test_with_column_bad_length(self):
        with pytest.raises(ValueError):
            make().with_column("c", np.arange(3))

    def test_filter_requires_bool(self):
        with pytest.raises(TypeError):
            make().filter(np.arange(5))

    def test_filter_bad_length(self):
        with pytest.raises(ValueError):
            make().filter(np.ones(3, dtype=bool))

    def test_sort_single_key(self):
        t = Table({"a": np.array([3, 1, 2])})
        assert np.array_equal(t.sort("a")["a"], [1, 2, 3])

    def test_sort_multi_key_primary_first(self):
        t = Table({"a": np.array([1, 0, 1, 0]), "b": np.array([9, 8, 7, 6])})
        s = t.sort(["a", "b"])
        assert np.array_equal(s["a"], [0, 0, 1, 1])
        assert np.array_equal(s["b"], [6, 8, 7, 9])

    def test_sort_no_keys(self):
        with pytest.raises(ValueError):
            make().sort([])

    def test_unique(self):
        t = Table({"a": np.array([2, 1, 2, 1])})
        assert np.array_equal(t.unique("a"), [1, 2])

    def test_copy_is_deep(self):
        t = make()
        c = t.copy()
        c["k"][0] = 99
        assert t["k"][0] == 0

    def test_nbytes_positive(self):
        assert make().nbytes() > 0


class TestEquality:
    def test_equal(self):
        assert make() == make()

    def test_nan_equal(self):
        a = Table({"x": np.array([1.0, np.nan])})
        b = Table({"x": np.array([1.0, np.nan])})
        assert a == b

    def test_not_equal_values(self):
        a, b = make(), make()
        b = b.with_column("v", b["v"] + 1)
        assert a != b

    def test_not_equal_columns(self):
        assert make() != make().drop(["s"])


class TestConcat:
    def test_concat(self):
        t = concat([make(2), make(3)])
        assert t.n_rows == 5

    def test_concat_mismatched(self):
        with pytest.raises(ValueError, match="mismatch"):
            concat([make(), make().drop(["s"])])

    def test_concat_empty_list(self):
        with pytest.raises(ValueError):
            concat([])
