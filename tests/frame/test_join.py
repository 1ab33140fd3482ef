"""Unit tests for equi-join and interval join."""

import numpy as np
import pytest

from repro.frame import Table, join, interval_join


class TestEquiJoin:
    def test_inner_basic(self):
        l = Table({"k": np.array([1, 2, 3]), "a": np.array([10.0, 20.0, 30.0])})
        r = Table({"k": np.array([2, 3, 4]), "b": np.array([200, 300, 400])})
        out = join(l, r, "k")
        assert np.array_equal(out["k"], [2, 3])
        assert np.array_equal(out["b"], [200, 300])

    def test_inner_duplicates_expand(self):
        l = Table({"k": np.array([1, 1]), "a": np.array([1.0, 2.0])})
        r = Table({"k": np.array([1, 1, 1]), "b": np.array([7, 8, 9])})
        out = join(l, r, "k")
        assert out.n_rows == 6

    def test_left_fills_missing(self):
        l = Table({"k": np.array([1, 5]), "a": np.array([1.0, 2.0])})
        r = Table(
            {"k": np.array([1]), "f": np.array([3.5]), "i": np.array([7]),
             "s": np.array(["yes"])}
        )
        out = join(l, r, "k", how="left")
        assert np.isnan(out["f"][1])
        assert out["i"][1] == -1
        assert out["s"][1] == ""

    def test_left_preserves_order(self):
        l = Table({"k": np.array([3, 1, 2])})
        r = Table({"k": np.array([1, 2, 3]), "v": np.array([1, 2, 3])})
        out = join(l, r, "k", how="left")
        assert np.array_equal(out["k"], [3, 1, 2])

    def test_multi_key(self):
        l = Table({"a": np.array([1, 1, 2]), "b": np.array([1, 2, 1]),
                   "x": np.array([10.0, 20.0, 30.0])})
        r = Table({"a": np.array([1, 2]), "b": np.array([2, 1]),
                   "y": np.array([5, 6])})
        out = join(l, r, ["a", "b"])
        assert sorted(out["y"].tolist()) == [5, 6]

    def test_name_collision_suffix(self):
        l = Table({"k": np.array([1]), "v": np.array([1.0])})
        r = Table({"k": np.array([1]), "v": np.array([2.0])})
        out = join(l, r, "k")
        assert "v_right" in out.columns

    def test_string_keys(self):
        l = Table({"k": np.array(["a", "b"]), "x": np.array([1, 2])})
        r = Table({"k": np.array(["b", "c"]), "y": np.array([3, 4])})
        out = join(l, r, "k")
        assert out.n_rows == 1
        assert out["y"][0] == 3

    def test_missing_key_raises(self):
        l = Table({"k": np.array([1])})
        r = Table({"j": np.array([1])})
        with pytest.raises(KeyError):
            join(l, r, "k")

    def test_bad_how(self):
        l = Table({"k": np.array([1])})
        with pytest.raises(ValueError):
            join(l, l, "k", how="outer")


class TestIntervalJoin:
    def make(self):
        samples = Table(
            {
                "node": np.array([0, 0, 0, 1, 1, 2]),
                "t": np.array([5.0, 15.0, 25.0, 5.0, 30.0, 10.0]),
            }
        )
        intervals = Table(
            {
                "node": np.array([0, 0, 1]),
                "b": np.array([0.0, 20.0, 25.0]),
                "e": np.array([10.0, 30.0, 35.0]),
                "allocation_id": np.array([101, 102, 103]),
            }
        )
        return samples, intervals

    def test_coverage(self):
        s, iv = self.make()
        out = interval_join(s, iv, time="t", begin="b", end="e", by="node")
        assert np.array_equal(
            out["allocation_id"], [101, -1, 102, -1, 103, -1]
        )

    def test_half_open_boundaries(self):
        s = Table({"node": np.array([0, 0]), "t": np.array([0.0, 10.0])})
        iv = Table({"node": np.array([0]), "b": np.array([0.0]),
                    "e": np.array([10.0]), "allocation_id": np.array([1])})
        out = interval_join(s, iv, time="t", begin="b", end="e", by="node")
        assert out["allocation_id"][0] == 1   # begin inclusive
        assert out["allocation_id"][1] == -1  # end exclusive

    def test_no_group_column(self):
        s = Table({"t": np.array([5.0, 50.0])})
        iv = Table({"b": np.array([0.0]), "e": np.array([10.0]),
                    "allocation_id": np.array([9])})
        out = interval_join(s, iv, time="t", begin="b", end="e")
        assert np.array_equal(out["allocation_id"], [9, -1])

    def test_cross_group_no_leak(self):
        # node 1's interval must not cover node 0's samples
        s = Table({"node": np.array([0]), "t": np.array([30.0])})
        iv = Table({"node": np.array([1]), "b": np.array([0.0]),
                    "e": np.array([100.0]), "allocation_id": np.array([1])})
        out = interval_join(s, iv, time="t", begin="b", end="e", by="node")
        assert out["allocation_id"][0] == -1

    def test_empty_intervals(self):
        s = Table({"node": np.array([0]), "t": np.array([1.0])})
        iv = Table({"node": np.empty(0, np.int64), "b": np.empty(0),
                    "e": np.empty(0), "allocation_id": np.empty(0, np.int64)})
        out = interval_join(s, iv, time="t", begin="b", end="e", by="node")
        assert out["allocation_id"][0] == -1

    def test_time_out_of_range(self):
        s = Table({"node": np.array([0]), "t": np.array([2.0**33])})
        iv = Table({"node": np.array([0]), "b": np.array([0.0]),
                    "e": np.array([1.0]), "allocation_id": np.array([1])})
        with pytest.raises(ValueError, match="range"):
            interval_join(s, iv, time="t", begin="b", end="e", by="node")

    def test_string_ids_fill_empty(self):
        s = Table({"node": np.array([0]), "t": np.array([99.0])})
        iv = Table({"node": np.array([0]), "b": np.array([0.0]),
                    "e": np.array([1.0]), "allocation_id": np.array([1]),
                    "proj": np.array(["ABC"])})
        out = interval_join(s, iv, time="t", begin="b", end="e", by="node",
                            id_columns=("allocation_id", "proj"))
        assert out["proj"][0] == ""
