"""Integration tests: the full telemetry pipeline, end to end.

Exercises the paper's actual data path on a window: dense physics -> 1 Hz
telemetry sampling -> 10 s coarsening -> allocation interval-join -> job
collapse — and cross-checks it against the direct per-job synthesis.
"""

import numpy as np
import pytest

from repro.core import (
    cluster_power_series,
    coarsen_telemetry,
    job_power_series,
    tag_allocations,
)
from repro.core.validation import msb_validation


@pytest.fixture(scope="module")
def window(twin):
    """30 minutes of dense 1 Hz physics and its telemetry."""
    arr = twin.builder.build(0.0, 1800.0, 1.0)
    tel = twin.sampler().sample(arr)
    return arr, tel


class TestFullPath:
    def test_coarsened_cluster_power_tracks_truth(self, twin, window):
        arr, tel = window
        coarse = coarsen_telemetry(tel, ["input_power"], width=10.0)
        series = cluster_power_series(coarse)
        truth = arr.node_input_w.reshape(twin.config.n_nodes, -1, 10).mean(axis=2).sum(axis=0)
        # collector delay shifts samples across window boundaries; compare
        # the bulk of the series
        m = min(len(truth), series.n_rows) - 1
        rel = np.abs(series["sum_inp"][:m] - truth[:m]) / truth[:m]
        assert np.median(rel) < 0.02

    def test_job_series_via_pipeline_matches_direct(self, twin, window):
        _, tel = window
        coarse = coarsen_telemetry(tel, ["input_power"], width=10.0)
        tagged = tag_allocations(coarse, twin.schedule.node_allocations)
        piped = job_power_series(tagged)
        direct = twin.job_series()

        # compare a mid-window timestamp for every allocation present
        ts = 600.0
        p_slice = piped.filter(piped["timestamp"] == ts)
        d_slice = direct.filter(direct["timestamp"] == ts)
        d_map = dict(zip(d_slice["allocation_id"].tolist(), d_slice["sum_inp"]))
        checked = 0
        for aid, sum_inp in zip(p_slice["allocation_id"], p_slice["sum_inp"]):
            if int(aid) in d_map:
                assert sum_inp == pytest.approx(d_map[int(aid)], rel=0.05)
                checked += 1
        assert checked >= 1

    def test_msb_validation_on_pipeline_data(self, twin, window):
        arr, tel = window
        meter_1hz = twin.msb.measure(arr.node_input_w)
        # coarsen both meter and summation to 10 s, as the paper does
        meter_10s = meter_1hz.reshape(twin.topology.n_msbs, -1, 10).mean(axis=2)
        node_meas = tel["input_power"].reshape(twin.config.n_nodes, -1)
        node_10s = node_meas.reshape(twin.config.n_nodes, -1, 10).mean(axis=2)
        summ_10s = twin.msb.node_summation(node_10s)
        out = msb_validation(meter_10s, summ_10s)
        assert out["mean_diff_w"] < 0
        assert 0.04 < out["relative_diff"] < 0.2
        assert np.nanmean(out["per_msb"]["phase_corr"]) > 0.3
