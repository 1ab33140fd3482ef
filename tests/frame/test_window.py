"""Unit tests for window indexing and windowed aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import Table, window_aggregate
from repro.frame.window import (
    _TINY,
    _tiny_window_index,
    window_index,
    window_span,
)


class TestWindowIndex:
    def test_basic(self):
        idx = window_index(np.array([0.0, 9.99, 10.0, 25.0]), 10.0)
        assert np.array_equal(idx, [0, 0, 1, 2])

    def test_origin(self):
        """The grid is epoch-aligned: window 0 starts at t = 0."""
        assert window_span(0, 10.0) == (0.0, 10.0)
        idx = window_index(np.array([-0.0, 0.0, 5.0, -1e-9]), 10.0)
        assert np.array_equal(idx, [0, 0, 0, -1])

    def test_negative_width(self):
        with pytest.raises(ValueError):
            window_index(np.array([0.0]), 0.0)

    def test_width_beyond_int64_takes_the_float_path(self):
        # integral, but no int64: the exact path would overflow
        idx = window_index(np.array([0.0, 5.0, 1800.0]), 1e308)
        assert np.array_equal(idx, [0, 0, 0])


class TestWindowIndexBoundaries:
    """The half-open invariant ``span(k)[0] <= t < span(k)[1]`` must hold in
    window_span's own arithmetic even where ``floor(t/width)`` rounds
    across an edge — the integer route and the FP guard both."""

    @given(
        st.integers(min_value=-10**9, max_value=10**9),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_integral_inputs_exact(self, t, width):
        k = int(window_index(np.array([float(t)]), float(width))[0])
        lo, hi = window_span(k, float(width))
        assert lo <= t < hi
        # edge timestamps land in the window *starting* there
        if t == lo:
            assert window_index(np.array([lo]), float(width))[0] == k

    @given(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_inputs_within_span(self, t, width):
        k = int(window_index(np.array([t]), width)[0])
        lo, hi = window_span(k, width)
        assert lo <= t < hi

    @given(st.integers(min_value=-10**6, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_exact_edges_fractional_width(self, k):
        """A timestamp manufactured exactly on edge k*width must get index
        k even for widths with no exact binary representation."""
        width = 0.1
        lo = float(k) * width  # window_span's arithmetic
        idx = int(window_index(np.array([lo]), width)[0])
        assert idx == k

    def test_mixed_edge_array(self):
        width = 10.0
        t = np.array([-10.0, -0.0, 0.0, 10.0, 10.0 - 2**-40, 1e15 + 10.0])
        idx = window_index(t, width)
        lo = np.array([window_span(int(k), width)[0] for k in idx])
        hi = np.array([window_span(int(k), width)[1] for k in idx])
        assert np.all(lo <= t)
        assert np.all(t < hi)


def _array_path(t: np.ndarray, width: float) -> np.ndarray:
    """window_index of ``t`` through the array path: the same stamps,
    padded past the tiny-input limit with copies of themselves (so the
    padded input is integral exactly when ``t`` is)."""
    padded = np.resize(t, _TINY + 1)
    with np.errstate(invalid="ignore"):
        return window_index(padded, width)[: len(t)]


@st.composite
def tiny_cases(draw, n=st.integers(1, _TINY)):
    """Stamps on ``k*width`` (window_span's arithmetic) and their
    ``nextafter`` neighbours, integral and fractional stamps, under
    integral or fractional widths."""
    width = draw(st.one_of(
        st.integers(1, 10**6).map(float),
        st.sampled_from([0.1, 0.3, 2.5, 1 / 3, 1e-3, 7.25]),
        st.floats(1e-3, 1e6),
    ))

    def on_edge(case):
        k, step = case
        t = float(k) * width
        return t if step == 0 else float(np.nextafter(t, step * np.inf))

    stamp = st.one_of(
        st.tuples(st.integers(-10**6, 10**6),
                  st.sampled_from([-1, 0, 1])).map(on_edge),
        st.integers(-(2**52) + 1, 2**52 - 1).map(float),
        st.floats(-1e12, 1e12),
    )
    size = draw(n)
    t = np.array(draw(st.lists(stamp, min_size=size, max_size=size)),
                 dtype=np.float64)
    if draw(st.booleans()):
        t = np.floor(t)  # all integral: the exact int64 route, if allowed
    return t, width


class TestTinyPath:
    """``window_index`` on up to eight stamps runs in Python scalars; it
    must return the array path's bits for every input, and leave what it
    cannot represent exactly to that path."""

    @given(tiny_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_array_path(self, case):
        t, width = case
        got = window_index(t, width)
        assert got.dtype == np.int64 and got.shape == t.shape
        assert np.array_equal(got, _array_path(t, width))
        if len(t) % 2 == 0:  # the planner's straddle check passes n x 2
            pairs = window_index(t.reshape(-1, 2), width)
            assert pairs.shape == (len(t) // 2, 2)
            assert np.array_equal(pairs.ravel(), got)

    @given(tiny_cases(n=st.just(_TINY + 1)))
    @settings(max_examples=100, deadline=None)
    def test_nine_stamps_take_the_array_path(self, case):
        t, width = case
        per_stamp = [int(window_index(t[i:i + 1], width)[0])
                     for i in range(len(t))]
        assert window_index(t, width).tolist() == per_stamp

    @pytest.mark.parametrize("stamp", [
        np.nan, np.inf, -np.inf, 2.0**52, -(2.0**52), 2.0**60, 1e300,
    ])
    @pytest.mark.parametrize("width, first", [(10.0, 0.0), (2.5, 0.3)])
    def test_unrepresentable_stamps_defer(self, stamp, width, first):
        """One such stamp defers the whole call, whether its finite
        neighbours would take the integer or the float route."""
        t = np.array([first, stamp, 12.5])
        assert _tiny_window_index(t.tolist(), width) is None
        with np.errstate(invalid="ignore"):
            got = window_index(t, width)
        assert np.array_equal(got, _array_path(t, width))

    def test_tiny_width_defers(self):
        # |t / width| beyond 2**62: the array path's int64 cast decides
        assert _tiny_window_index([1e12], 1e-9) is None

    def test_empty(self):
        got = window_index(np.empty(0), 10.0)
        assert got.dtype == np.int64 and got.shape == (0,)


class TestWindowAggregate:
    def test_stats_per_window(self):
        t = Table({"t": np.arange(20.0), "p": np.arange(20.0)})
        w = window_aggregate(t, time="t", width=10.0, values=["p"])
        assert w.n_rows == 2
        assert np.array_equal(w["count"], [10, 10])
        assert np.allclose(w["p_mean"], [4.5, 14.5])
        assert np.allclose(w["p_min"], [0.0, 10.0])
        assert np.allclose(w["p_max"], [9.0, 19.0])
        assert np.allclose(w["p_std"], np.arange(10).std())

    def test_by_groups(self):
        t = Table(
            {
                "node": np.array([0, 0, 1, 1]),
                "t": np.array([0.0, 5.0, 0.0, 5.0]),
                "p": np.array([1.0, 3.0, 10.0, 30.0]),
            }
        )
        w = window_aggregate(t, time="t", width=10.0, values=["p"], by=["node"])
        assert w.n_rows == 2
        assert np.allclose(np.sort(w["p_mean"]), [2.0, 20.0])

    def test_empty_windows_absent(self):
        t = Table({"t": np.array([0.0, 100.0]), "p": np.array([1.0, 2.0])})
        w = window_aggregate(t, time="t", width=10.0, values=["p"])
        assert w.n_rows == 2
        assert np.array_equal(np.sort(w["timestamp"]), [0.0, 100.0])

    def test_columns_are_the_default_stats(self):
        t = Table({"t": np.arange(10.0), "p": np.arange(10.0)})
        w = window_aggregate(t, time="t", width=5.0, values=["p"])
        assert w.columns == [
            "count", "p_min", "p_max", "p_mean", "p_std", "timestamp",
        ]

    def test_missing_column_raises(self):
        t = Table({"t": np.arange(3.0)})
        with pytest.raises(KeyError):
            window_aggregate(t, time="t", width=1.0, values=["p"])

    def test_multiple_values(self):
        t = Table({"t": np.arange(10.0), "a": np.arange(10.0), "b": np.ones(10)})
        w = window_aggregate(t, time="t", width=10.0, values=["a", "b"])
        assert np.isclose(w["b_std"][0], 0.0)
