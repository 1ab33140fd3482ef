"""Hypothesis property tests on edge detection."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.edges import detect_edges

power_series = hnp.arrays(
    np.float64,
    st.integers(2, 200),
    elements=st.floats(0.0, 1e7, allow_nan=False, allow_infinity=False),
)

#: powers on a 1/8 W grid: every value, every step between two values and
#: every value + 12345.0 is exact in float64, so shifting the series cannot
#: round a step across ``detect_edges``' strict ``d > threshold_w``
grid_power_series = hnp.arrays(
    np.float64,
    st.integers(2, 200),
    elements=st.integers(0, 8 * 10**7).map(lambda k: k / 8.0),
)


class TestDetectEdgesProperties:
    @given(power_series, st.floats(1.0, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_amplitudes_exceed_threshold(self, p, thr):
        t = np.arange(len(p)) * 10.0
        edges = detect_edges(t, p, thr)
        # every edge contains at least one step beyond the threshold, so the
        # cumulative amplitude is at least that large
        assert np.all(np.abs(edges["amplitude_w"]) > thr - 1e-9)

    @given(power_series, st.floats(1.0, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_directions_alternate_or_separated(self, p, thr):
        t = np.arange(len(p)) * 10.0
        edges = detect_edges(t, p, thr)
        d = edges["direction"]
        assert set(np.unique(d)).issubset({-1, 1})

    @given(power_series, st.floats(1.0, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_durations_positive_and_bounded(self, p, thr):
        t = np.arange(len(p)) * 10.0
        edges = detect_edges(t, p, thr)
        assert np.all(edges["duration_s"] > 0)
        assert np.all(edges["duration_s"] <= t[-1] - t[0] + 1e-9)

    @given(power_series, st.floats(1.0, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_edge_times_within_series(self, p, thr):
        t = np.arange(len(p)) * 10.0
        edges = detect_edges(t, p, thr)
        assert np.all(edges["time"] >= t[0])
        assert np.all(edges["time"] <= t[-1])

    @given(power_series)
    @settings(max_examples=50, deadline=None)
    def test_huge_threshold_finds_nothing(self, p):
        t = np.arange(len(p)) * 10.0
        thr = float(np.ptp(p)) + 1.0
        assert detect_edges(t, p, thr).n_rows == 0

    @given(st.floats(10.0, 1e6), st.integers(2, 30))
    @settings(max_examples=50, deadline=None)
    def test_monotone_ramp_is_single_edge(self, step, n):
        p = np.arange(n, dtype=np.float64) * step
        t = np.arange(n) * 10.0
        edges = detect_edges(t, p, step * 0.5)
        assert edges.n_rows == 1
        assert edges["amplitude_w"][0] > 0

    @given(grid_power_series, st.floats(1.0, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_offset_invariance(self, p, thr):
        """Adding a constant shifts nothing: same edges detected."""
        t = np.arange(len(p)) * 10.0
        a = detect_edges(t, p, thr)
        b = detect_edges(t, p + 12345.0, thr)
        assert a.n_rows == b.n_rows
        assert np.array_equal(a["start_index"], b["start_index"])
        assert np.array_equal(a["amplitude_w"], b["amplitude_w"])

    @given(power_series, st.floats(1.0, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_negation_swaps_directions(self, p, thr):
        t = np.arange(len(p)) * 10.0
        a = detect_edges(t, p, thr)
        b = detect_edges(t, -p, thr)
        assert a.n_rows == b.n_rows
        if a.n_rows:
            assert np.array_equal(a["direction"], -b["direction"])
