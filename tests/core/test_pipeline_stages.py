"""Unit tests for coarsen / aggregate / jobjoin / energy stages."""

import numpy as np
import pytest

from repro.core import (
    cluster_power_series,
    coarsen_telemetry,
    job_energy,
    job_power_series,
    job_power_summary,
    job_component_summary,
    tag_allocations,
)
from repro.frame import Table


@pytest.fixture()
def telemetry():
    """Two nodes, 30 s of 1 Hz data with known values."""
    n_t = 30
    rows = []
    t = np.arange(n_t, dtype=np.float64)
    return Table(
        {
            "node": np.repeat([0, 1], n_t),
            "timestamp": np.tile(t, 2),
            "input_power": np.concatenate([np.full(n_t, 500.0), 1000.0 + t]),
            "cpu_power": np.full(2 * n_t, 200.0),
            "gpu_power": np.concatenate([np.full(n_t, 100.0), np.full(n_t, 600.0)]),
        }
    )


class TestCoarsen:
    def test_shapes_and_stats(self, telemetry):
        c = coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        assert c.n_rows == 6  # 2 nodes x 3 windows
        node1 = c.filter(c["node"] == 1).sort("timestamp")
        assert np.allclose(node1["input_power_mean"], [1004.5, 1014.5, 1024.5])
        assert np.allclose(node1["input_power_max"], [1009, 1019, 1029])

    def test_nan_rows_dropped(self, telemetry):
        vals = telemetry["input_power"].copy()
        vals[:5] = np.nan
        t = telemetry.with_column("input_power", vals)
        c = coarsen_telemetry(t, ["input_power"], width=10.0)
        w0 = c.filter((c["node"] == 0) & (c["timestamp"] == 0.0))
        assert w0["count"][0] == 5

    def test_missing_column(self, telemetry):
        with pytest.raises(KeyError):
            coarsen_telemetry(telemetry, ["nope"])


class TestClusterSeries:
    def test_sum_across_nodes(self, telemetry):
        c = coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        s = cluster_power_series(c)
        assert s.n_rows == 3
        assert np.allclose(s["sum_inp"], [500 + 1004.5, 500 + 1014.5, 500 + 1024.5])
        assert np.array_equal(s["count_inp"], [2, 2, 2])

    def test_missing_column_raises(self, telemetry):
        c = coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        with pytest.raises(KeyError):
            cluster_power_series(c, value="gpu_power")


class TestJobJoin:
    @pytest.fixture()
    def tagged(self, telemetry):
        c = coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        na = Table(
            {
                "allocation_id": np.array([7, 7], dtype=np.int64),
                "node": np.array([0, 1], dtype=np.int64),
                "begin_time": np.array([0.0, 0.0]),
                "end_time": np.array([20.0, 20.0]),
            }
        )
        return tag_allocations(c, na)

    def test_tagging(self, tagged):
        covered = tagged.filter(tagged["timestamp"] < 20.0)
        assert np.all(covered["allocation_id"] == 7)
        outside = tagged.filter(tagged["timestamp"] >= 20.0)
        assert np.all(outside["allocation_id"] == -1)

    def test_job_power_series(self, tagged):
        js = job_power_series(tagged)
        assert js.n_rows == 2  # two covered windows
        assert np.array_equal(js["count_hostname"], [2, 2])
        assert np.allclose(js["sum_inp"], [1504.5, 1514.5])

    def test_job_power_summary(self, tagged):
        js = job_power_series(tagged)
        summ = job_power_summary(js)
        assert summ.n_rows == 1
        assert np.isclose(summ["max_sum_inp"][0], 1514.5)
        assert np.isclose(summ["mean_sum_inp"][0], 1509.5)

    def test_component_series_and_summary(self):
        jc = Table(
            {
                "allocation_id": np.array([9, 9, 9], dtype=np.int64),
                "timestamp": np.array([0.0, 10.0, 20.0]),
                "mean_cpu_power": np.array([200.0, 200.0, 200.0]),
                "max_cpu_power": np.array([200.0, 150.0, 180.0]),
                "mean_gpu_power": np.array([600.0, 500.0, 700.0]),
                "max_gpu_power": np.array([600.0, 650.0, 700.0]),
            }
        )
        summ = job_component_summary(jc)
        assert np.isclose(summ["mean_mean_gpu_pwr"][0], 600.0)
        assert np.isclose(summ["max_cpu_pwr"][0], 200.0)
        assert np.isclose(summ["max_gpu_pwr"][0], 700.0)
        assert summ["end_time"][0] == 20.0


class TestEnergy:
    def test_energy_integration(self):
        js = Table(
            {
                "allocation_id": np.array([1, 1, 1], dtype=np.int64),
                "timestamp": np.array([0.0, 10.0, 20.0]),
                "count_hostname": np.array([4, 4, 4], dtype=np.int64),
                "sum_inp": np.array([1000.0, 2000.0, 3000.0]),
            }
        )
        e = job_energy(js)  # 10 s windows
        assert np.isclose(e["energy"][0], 60_000.0)
        assert e["num_nodes"][0] == 4
