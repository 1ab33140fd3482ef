"""Bit-identity of the sorted-path / single-key group-by kernels.

The generic factorize+argsort kernel is the reference; every fast path
(``presorted=True`` on ordered rows, the ``None`` auto-probe, the single-key
no-factorize plan) must produce **bitwise identical** output — same dtypes,
same bytes — on NaN-bearing values, boundary ties, single rows, and empty
tables.  Nothing here uses approximate comparison on purpose.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.frame import Table, group_by, window_aggregate
from repro.frame.ops import lex_sorted, run_starts
from repro.frame.window import _aggregate_windows, window_index

from .test_cold_scan_kernels import generic_group_by, generic_kernel

ALL_AGGS = {
    "n": "count",
    "s": ("v", "sum"),
    "m": ("v", "mean"),
    "lo": ("v", "min"),
    "hi": ("v", "max"),
    "sd": ("v", "std"),
}

values_with_nan = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
) | st.just(float("nan"))


def windowed(t: Table, presorted, width, values, by) -> Table:
    """``window_aggregate`` over ``timestamp`` on a declared kernel route."""
    win = window_index(t["timestamp"], width)
    return _aggregate_windows(t, win, width, values, by, presorted)


def assert_bitwise_equal(a: Table, b: Table) -> None:
    assert a.columns == b.columns
    for c in a.columns:
        assert a[c].dtype == b[c].dtype, c
        # NaN-aware but otherwise exact: bitwise for every finite value
        assert np.array_equal(a[c], b[c], equal_nan=a[c].dtype.kind == "f"), c


@st.composite
def grouped_rows(draw, max_rows=200, two_keys=False, sort=False):
    """A (possibly sorted) table with int key(s) and NaN-bearing values."""
    n = draw(st.integers(min_value=0, max_value=max_rows))
    cols = {
        "k": draw(hnp.arrays(np.int64, n, elements=st.integers(-4, 4))),
    }
    if two_keys:
        cols["k2"] = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
    cols["v"] = draw(hnp.arrays(np.float64, n, elements=values_with_nan))
    t = Table(cols)
    if sort and n:
        t = t.sort(["k", "k2"] if two_keys else "k")
    return t


class TestSortedKernelBitIdentity:
    @given(grouped_rows(sort=True))
    @settings(max_examples=80, deadline=None)
    def test_presorted_single_key(self, t):
        if t.n_rows == 0:
            return
        ref = generic_group_by(t, "k", ALL_AGGS)
        assert_bitwise_equal(group_by(t, "k", ALL_AGGS, presorted=True), ref)
        assert_bitwise_equal(group_by(t, "k", ALL_AGGS, presorted=None), ref)

    @given(grouped_rows(two_keys=True, sort=True))
    @settings(max_examples=80, deadline=None)
    def test_presorted_two_keys(self, t):
        if t.n_rows == 0:
            return
        keys = ["k", "k2"]
        ref = generic_group_by(t, keys, ALL_AGGS)
        assert_bitwise_equal(group_by(t, keys, ALL_AGGS, presorted=True), ref)
        assert_bitwise_equal(group_by(t, keys, ALL_AGGS, presorted=None), ref)

    @given(grouped_rows(sort=False))
    @settings(max_examples=80, deadline=None)
    def test_single_key_no_factorize(self, t):
        """Unsorted single int key: the stable-value-argsort plan must match
        the factorize kernel bit for bit."""
        if t.n_rows == 0:
            return
        ref = generic_group_by(t, "k", ALL_AGGS)
        got = group_by(t, "k", ALL_AGGS, presorted=False)
        assert_bitwise_equal(got, ref)
        assert_bitwise_equal(group_by(t, "k", ALL_AGGS, presorted=None), got)

    @given(grouped_rows(two_keys=True, sort=False))
    @settings(max_examples=60, deadline=None)
    def test_probe_on_unsorted_two_keys(self, t):
        if t.n_rows == 0:
            return
        keys = ["k", "k2"]
        ref = generic_group_by(t, keys, ALL_AGGS)
        assert_bitwise_equal(group_by(t, keys, ALL_AGGS, presorted=None), ref)

    def test_single_row(self):
        t = Table({"k": np.array([3]), "v": np.array([1.5])})
        ref = generic_group_by(t, "k", ALL_AGGS)
        assert_bitwise_equal(group_by(t, "k", ALL_AGGS, presorted=True), ref)

    def test_empty(self):
        t = Table({"k": np.empty(0, dtype=np.int64), "v": np.empty(0)})
        for presorted in (None, True, False):
            g = group_by(t, "k", ALL_AGGS, presorted=presorted)
            assert g.n_rows == 0
            assert g["n"].dtype == np.int64

    def test_nan_keys_take_generic_kernel(self):
        """np.unique collapses NaN keys into one group; the probe must refuse
        the fast paths so that behavior is preserved."""
        k = np.array([0.0, np.nan, 1.0, np.nan])
        t = Table({"k": k, "v": np.arange(4.0)})
        assert not lex_sorted([k])
        g = group_by(t, "k", {"n": "count"}, presorted=None)
        assert g.n_rows == 3  # 0.0, 1.0, and one pooled NaN group
        assert int(g["n"].sum()) == 4

    def test_float_keys_sorted(self):
        k = np.array([0.5, 0.5, 1.25, 2.0])
        t = Table({"k": k, "v": np.array([1.0, 2.0, 3.0, 4.0])})
        assert lex_sorted([k])
        ref = generic_group_by(t, "k", ALL_AGGS)
        assert_bitwise_equal(group_by(t, "k", ALL_AGGS, presorted=True), ref)


class TestWindowAggregateBitIdentity:
    @given(
        st.integers(min_value=1, max_value=160),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_time_sorted_by_node(self, n_t, seed):
        """Node-major, per-node time-ascending telemetry with boundary ties
        (integral timestamps hit window edges exactly)."""
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(1, 4))
        node = np.repeat(np.arange(n_nodes), n_t)
        ts = np.tile(np.sort(rng.integers(0, 50, n_t)).astype(np.float64), n_nodes)
        v = rng.normal(0, 1, n_nodes * n_t)
        v[rng.random(v.shape) < 0.05] = np.nan
        t = Table({"node": node, "timestamp": ts, "v": v})
        kw = dict(width=10.0, values=["v"], by=["node"])
        with generic_kernel():
            ref = window_aggregate(t, time="timestamp", **kw)
        assert_bitwise_equal(windowed(t, False, **kw), ref)
        assert_bitwise_equal(windowed(t, True, **kw), ref)
        assert_bitwise_equal(window_aggregate(t, time="timestamp", **kw), ref)

    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_by_skips_factorize(self, n, seed):
        """by=() must agree between all kernel routes (and never factorize)."""
        rng = np.random.default_rng(seed)
        ts = rng.uniform(0, 100, n)
        t = Table({"timestamp": ts, "v": rng.normal(0, 1, n)})
        kw = dict(width=7.5, values=["v"], by=())
        ref = windowed(t, False, **kw)
        assert_bitwise_equal(window_aggregate(t, time="timestamp", **kw), ref)
        ts.sort()
        t2 = Table({"timestamp": ts, "v": t["v"]})
        ref2 = windowed(t2, False, **kw)
        assert_bitwise_equal(windowed(t2, True, **kw), ref2)


class TestOpsHelpers:
    @given(grouped_rows(two_keys=True, sort=True))
    @settings(max_examples=60, deadline=None)
    def test_lex_sorted_accepts_sorted(self, t):
        assert lex_sorted([t["k"], t["k2"]])

    def test_lex_sorted_rejects_unsorted(self):
        assert not lex_sorted([np.array([1, 0])])
        assert not lex_sorted([np.array([0, 0]), np.array([1, 0])])
        # sorted on the primary key, tie broken backwards on the secondary
        assert lex_sorted([np.array([0, 1]), np.array([1, 0])])

    def test_run_starts_boundaries(self):
        starts = run_starts([np.array([5, 5, 7, 7, 7, 2])])
        assert starts.tolist() == [0, 2, 5]
        assert run_starts([np.empty(0, dtype=np.int64)]).tolist() == []

    def test_run_starts_multi_key(self):
        a = np.array([0, 0, 0, 1])
        b = np.array([0, 1, 1, 1])
        assert run_starts([a, b]).tolist() == [0, 1, 3]
