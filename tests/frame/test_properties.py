"""Hypothesis property tests on the frame substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.frame import Table, group_by, join, window_aggregate
from repro.frame.ops import multi_factorize

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def keyed_table(draw, max_rows=200):
    n = draw(st.integers(min_value=1, max_value=max_rows))
    keys = draw(
        hnp.arrays(np.int64, n, elements=st.integers(min_value=-5, max_value=5))
    )
    vals = draw(hnp.arrays(np.float64, n, elements=finite_floats))
    return Table({"k": keys, "v": vals})


class TestGroupByProperties:
    @given(keyed_table())
    @settings(max_examples=60, deadline=None)
    def test_counts_partition_rows(self, t):
        g = group_by(t, "k", {"n": "count"})
        assert int(g["n"].sum()) == t.n_rows

    @given(keyed_table())
    @settings(max_examples=60, deadline=None)
    def test_sum_of_sums_is_total(self, t):
        g = group_by(t, "k", {"s": ("v", "sum")})
        assert np.isclose(g["s"].sum(), t["v"].sum(), rtol=1e-9, atol=1e-6)

    @given(keyed_table())
    @settings(max_examples=60, deadline=None)
    def test_min_max_bound_mean(self, t):
        g = group_by(
            t, "k", {"lo": ("v", "min"), "hi": ("v", "max"), "m": ("v", "mean")}
        )
        tol = 1e-9 * np.maximum(1.0, np.abs(g["m"]))
        assert np.all(g["lo"] <= g["m"] + tol)
        assert np.all(g["m"] <= g["hi"] + tol)

    @given(keyed_table())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, t):
        perm = np.random.default_rng(0).permutation(t.n_rows)
        g1 = group_by(t, "k", {"s": ("v", "sum"), "n": "count"})
        g2 = group_by(t.take(perm), "k", {"s": ("v", "sum"), "n": "count"})
        assert np.array_equal(g1["k"], g2["k"])
        assert np.array_equal(g1["n"], g2["n"])
        assert np.allclose(g1["s"], g2["s"], rtol=1e-9, atol=1e-6)


class TestFactorizeProperties:
    @given(
        hnp.arrays(np.int64, st.integers(1, 100),
                   elements=st.integers(-3, 3)),
        hnp.arrays(np.int64, st.integers(1, 100),
                   elements=st.integers(-3, 3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_codes_reconstruct_keys(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        uniques, codes, n_groups = multi_factorize([a, b])
        assert codes.max(initial=-1) < n_groups
        assert np.array_equal(uniques[0][codes], a)
        assert np.array_equal(uniques[1][codes], b)


class TestJoinProperties:
    @given(
        hnp.arrays(np.int64, st.integers(1, 50), elements=st.integers(0, 8)),
        hnp.arrays(np.int64, st.integers(1, 50), elements=st.integers(0, 8)),
    )
    @settings(max_examples=60, deadline=None)
    def test_inner_join_cardinality(self, lk, rk):
        l = Table({"k": lk, "i": np.arange(len(lk))})
        r = Table({"k": rk, "j": np.arange(len(rk))})
        out = join(l, r, "k")
        # expected cardinality: sum over keys of count_l * count_r
        expect = 0
        for k in np.unique(lk):
            expect += int((lk == k).sum()) * int((rk == k).sum())
        assert out.n_rows == expect

    @given(
        hnp.arrays(np.int64, st.integers(1, 50), elements=st.integers(0, 8)),
        hnp.arrays(np.int64, st.integers(1, 50), elements=st.integers(0, 8)),
    )
    @settings(max_examples=60, deadline=None)
    def test_left_join_covers_all_left_rows(self, lk, rk):
        l = Table({"k": lk})
        r = Table({"k": np.unique(rk), "v": np.arange(len(np.unique(rk)))})
        out = join(l, r, "k", how="left")
        assert out.n_rows == len(lk)  # right side deduped -> 1:1


class TestWindowProperties:
    @given(
        hnp.arrays(
            np.float64, st.integers(2, 300),
            elements=st.floats(0, 1e5, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_window_mean_weighted_equals_global(self, vals):
        t = Table({"t": np.arange(len(vals), dtype=np.float64), "p": vals})
        w = window_aggregate(t, time="t", width=7.0, values=["p"])
        weighted = (w["p_mean"] * w["count"]).sum() / w["count"].sum()
        assert np.isclose(weighted, vals.mean(), rtol=1e-9, atol=1e-9)

    @given(
        hnp.arrays(
            np.float64, st.integers(2, 300),
            elements=st.floats(0, 1e5, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_window_extrema_bound_global(self, vals):
        t = Table({"t": np.arange(len(vals), dtype=np.float64), "p": vals})
        w = window_aggregate(t, time="t", width=13.0, values=["p"])
        assert np.isclose(w["p_min"].min(), vals.min())
        assert np.isclose(w["p_max"].max(), vals.max())
