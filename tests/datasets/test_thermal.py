"""Unit tests for the thermal dataset builders (Datasets 8-9 analogues)."""

import numpy as np
import pytest

from repro.datasets import (
    temperature_band_counts,
    thermal_cluster_series,
)
from repro.datasets.thermal import DEFAULT_BANDS, HOT_THRESHOLD_C


class TestBandCounts:
    def test_partition(self):
        temps = np.array([25.0, 35.0, 45.0, 52.0, 57.0, 62.0, 67.0, 80.0])
        counts = temperature_band_counts(temps)
        assert counts.sum() == len(temps)
        assert len(counts) == len(DEFAULT_BANDS) + 1
        assert counts[0] == 1          # < 30
        assert counts[-1] == 1         # >= 70

    def test_nan_excluded(self):
        counts = temperature_band_counts(np.array([45.0, np.nan]))
        assert counts.sum() == 1

    def test_boundary_left_closed(self):
        counts = temperature_band_counts(np.array([40.0]))
        # 40.0 belongs to [40, 50), i.e. index 2
        assert counts[2] == 1


class TestClusterSeries:
    @pytest.fixture(scope="class")
    def series(self, twin):
        return thermal_cluster_series(twin, 0.0, 600.0, dt=10.0)

    def test_shape(self, twin, series):
        assert series.n_rows == 60
        assert "gpu_core_mean" in series and "mtwrt" in series

    def test_band_counts_partition_gpus(self, twin, series):
        band_cols = [c for c in series.columns if c.startswith("band_")]
        total = sum(series[c] for c in band_cols)
        assert np.array_equal(total, series["n_reporting"])
        assert series["n_reporting"].max() <= twin.config.n_gpus

    def test_temperatures_physical(self, series):
        assert np.nanmin(series["gpu_core_mean"]) > 15.0
        assert np.nanmax(series["gpu_core_max"]) < 95.0
        assert np.all(series["gpu_core_max"] >= series["gpu_core_mean"])

    def test_hot_count_consistent(self, series):
        ge_cols = [c for c in series.columns if c.startswith("band_ge_")]
        # every "hot" GPU is at least in the >= 65 C region when the top
        # band starts at 70: n_hot >= band_ge_70
        assert np.all(series["n_hot"] >= series[ge_cols[0]] - 1e-9)

