"""``cluster_power_series`` returns its windows in timestamp order without
sorting them: the one-key group-by under it already emits ascending keys
(NaN last) on every kernel route, so a trailing sort would be a no-op."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.aggregate import cluster_power_series
from repro.frame import Table


def assert_same_bytes(got: Table, want: Table) -> None:
    assert got.columns == want.columns
    for c in want.columns:
        assert got[c].dtype == want[c].dtype, c
        assert got[c].tobytes() == want[c].tobytes(), c


@st.composite
def coarse_tables(draw):
    """Coarsened rows: window-start stamps drawn with repeats (several
    nodes per window), in any order, sometimes with NaN stamps."""
    starts = st.integers(-50, 50).map(lambda k: 10.0 * k)
    stamp = starts | st.just(np.nan) if draw(st.booleans()) else starts
    n = draw(st.integers(0, 80))
    mean = st.floats(-1e4, 1e4) | st.just(np.nan)
    return Table({
        "timestamp": np.array(draw(st.lists(stamp, min_size=n, max_size=n)),
                              dtype=np.float64),
        "input_power_mean": np.array(
            draw(st.lists(mean, min_size=n, max_size=n)), dtype=np.float64),
        "input_power_max": np.array(
            draw(st.lists(mean, min_size=n, max_size=n)), dtype=np.float64),
    })


@given(coarse_tables())
@settings(max_examples=300, deadline=None)
def test_output_is_already_in_timestamp_order(coarse):
    got = cluster_power_series(coarse)
    assert_same_bytes(got, got.sort("timestamp"))
    if not np.isnan(coarse["timestamp"]).any():
        ordered = coarse.sort("timestamp")
        for presorted in (True, None, False):
            assert_same_bytes(
                cluster_power_series(ordered, presorted=presorted), got)


def test_duplicate_and_nan_stamps():
    coarse = Table({
        "timestamp": np.array([20.0, np.nan, 10.0, 20.0, np.nan, 0.0]),
        "input_power_mean": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        "input_power_max": np.array([1.5, 2.5, 3.5, 4.5, 5.5, 6.5]),
    })
    got = cluster_power_series(coarse)
    assert got["timestamp"][:3].tolist() == [0.0, 10.0, 20.0]
    assert np.isnan(got["timestamp"][3])
    assert got["count_inp"].tolist() == [1, 1, 2, 2]
    assert got["sum_inp"].tolist() == [6.0, 3.0, 5.0, 7.0]
