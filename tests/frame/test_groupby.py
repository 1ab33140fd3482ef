"""Unit tests for group_by against brute-force references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.frame.groupby as groupby_mod
from repro.frame import Table, group_by


@pytest.fixture()
def t():
    return Table(
        {
            "k": np.array([2, 1, 2, 1, 2]),
            "g": np.array(["a", "a", "b", "a", "b"]),
            "v": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        }
    )


class TestSingleKey:
    def test_count(self, t):
        g = group_by(t, "k", {"n": "count"})
        assert np.array_equal(g["k"], [1, 2])
        assert np.array_equal(g["n"], [2, 3])

    def test_sum_mean(self, t):
        g = group_by(t, "k", {"s": ("v", "sum"), "m": ("v", "mean")})
        assert np.allclose(g["s"], [6.0, 9.0])
        assert np.allclose(g["m"], [3.0, 3.0])

    def test_min_max(self, t):
        g = group_by(t, "k", {"lo": ("v", "min"), "hi": ("v", "max")})
        assert np.allclose(g["lo"], [2.0, 1.0])
        assert np.allclose(g["hi"], [4.0, 5.0])

    def test_std_matches_numpy(self, t):
        g = group_by(t, "k", {"sd": ("v", "std")})
        expect = [np.std([2.0, 4.0]), np.std([1.0, 3.0, 5.0])]
        assert np.allclose(g["sd"], expect)

    def test_count_via_tuple(self, t):
        g = group_by(t, "k", {"n": ("v", "count")})
        assert np.array_equal(g["n"], [2, 3])


class TestMultiKey:
    def test_groups(self, t):
        g = group_by(t, ["k", "g"], {"n": "count", "s": ("v", "sum")})
        got = {
            (int(k), str(s)): (int(n), float(v))
            for k, s, n, v in zip(g["k"], g["g"], g["n"], g["s"])
        }
        assert got == {
            (1, "a"): (2, 6.0),
            (2, "a"): (1, 1.0),
            (2, "b"): (2, 8.0),
        }

    def test_key_columns_aligned(self, t):
        g = group_by(t, ["g", "k"], {"n": "count"})
        assert set(zip(g["g"].tolist(), g["k"].tolist())) == {
            ("a", 1), ("a", 2), ("b", 2)
        }


class TestEdgeCases:
    def test_empty_table(self):
        t = Table({"k": np.empty(0, np.int64), "v": np.empty(0)})
        g = group_by(t, "k", {"n": "count", "m": ("v", "mean")})
        assert g.n_rows == 0
        assert g["n"].dtype == np.int64

    def test_single_group(self):
        t = Table({"k": np.zeros(10, np.int64), "v": np.arange(10.0)})
        g = group_by(t, "k", {"m": ("v", "mean")})
        assert g.n_rows == 1
        assert g["m"][0] == 4.5

    def test_all_distinct(self):
        t = Table({"k": np.arange(5), "v": np.arange(5.0)})
        g = group_by(t, "k", {"sd": ("v", "std")})
        assert np.allclose(g["sd"], 0.0)

    def test_unknown_agg(self, t):
        with pytest.raises(ValueError, match="unknown aggregation"):
            group_by(t, "k", {"x": ("v", "mode")})

    def test_missing_key(self, t):
        with pytest.raises(KeyError):
            group_by(t, "nope", {"n": "count"})

    def test_missing_value_column(self, t):
        with pytest.raises(KeyError):
            group_by(t, "k", {"x": ("nope", "sum")})

    def test_no_keys(self, t):
        with pytest.raises(ValueError):
            group_by(t, [], {"n": "count"})

    def test_negative_std_guard(self):
        # values engineered so sumsq/c - mean^2 could go slightly negative
        t = Table({"k": np.zeros(3, np.int64), "v": np.full(3, 1e8)})
        g = group_by(t, "k", {"sd": ("v", "std")})
        assert g["sd"][0] >= 0.0


class TestAgainstBruteForce:
    def test_random_matches_python(self, rng):
        n = 500
        t = Table(
            {
                "k": rng.integers(0, 17, n),
                "v": rng.normal(size=n),
            }
        )
        g = group_by(
            t, "k",
            {"n": "count", "s": ("v", "sum"), "lo": ("v", "min"),
             "hi": ("v", "max"), "sd": ("v", "std")},
        )
        for i, k in enumerate(g["k"]):
            vals = t["v"][t["k"] == k]
            assert g["n"][i] == len(vals)
            assert np.isclose(g["s"][i], vals.sum())
            assert np.isclose(g["lo"][i], vals.min())
            assert np.isclose(g["hi"][i], vals.max())
            assert np.isclose(g["sd"][i], vals.std(), atol=1e-10)


@st.composite
def one_key_cases(draw):
    """A one-key table for one kernel route: ``sorted`` (rows ordered,
    ``presorted=True``), ``single`` (unsorted NaN-free keys, float or
    integer) or ``generic`` (at least one NaN key)."""
    route = draw(st.sampled_from(["sorted", "single", "generic"]))
    if route == "single" and draw(st.booleans()):
        pool = draw(st.lists(st.integers(-10**9, 10**9), min_size=1,
                             max_size=6, unique=True))
    else:
        pool = draw(st.lists(st.floats(-1e6, 1e6) | st.just(-0.0),
                             min_size=1, max_size=6, unique=True))
    n = draw(st.integers(1, 60))
    k = np.array(draw(st.lists(st.sampled_from(pool), min_size=n,
                               max_size=n)))
    if route == "sorted":
        k = np.sort(k, kind="stable")
    if route == "generic":
        k = np.insert(k.astype(np.float64), draw(st.integers(0, n)),
                      np.nan)
    return route, Table({"k": k, "v": np.arange(float(len(k)))})


class TestOneKeyOrder:
    """A one-key group_by emits its keys ascending, NaN last, on every
    kernel route: ``cluster_power_series`` returns that order unsorted."""

    PLAN = {"sorted": "_plan_sorted", "single": "_plan_single_key",
            "generic": "_plan_generic"}
    PRESORTED = {"sorted": True, "single": False, "generic": None}

    @given(one_key_cases())
    @settings(max_examples=300, deadline=None)
    def test_keys_ascend_on_every_route(self, case):
        route, t = case
        taken = []
        with pytest.MonkeyPatch.context() as mp:
            for name in self.PLAN.values():
                real = getattr(groupby_mod, name)
                mp.setattr(groupby_mod, name,
                           lambda *a, _real=real, _name=name:
                           taken.append(_name) or _real(*a))
            g = group_by(t, "k", {"n": "count", "m": ("v", "mean")},
                         presorted=self.PRESORTED[route])
        assert taken == [self.PLAN[route]]
        keys = g["k"]
        nan = np.isnan(keys) if keys.dtype.kind == "f" else np.zeros(
            len(keys), dtype=bool)
        assert nan.sum() == (route == "generic")
        assert not nan.any() or nan[-1]
        finite = keys[~nan]
        assert np.all(finite[:-1] < finite[1:])
