"""Unit tests for the differenced-FFT characterization."""

import numpy as np
import pytest

from repro.core.spectral import dominant_mode, job_spectral_summary
from repro.frame import Table


class TestDominantMode:
    def test_recovers_square_wave_period(self):
        dt = 10.0
        t = np.arange(0, 4000, dt)
        p = 1000.0 + 500.0 * np.sign(np.sin(2 * np.pi * t / 200.0))
        f, a = dominant_mode(p, dt)
        assert f == pytest.approx(1 / 200.0, rel=0.15)
        assert a > 0

    def test_recovers_sine_period(self):
        dt = 10.0
        t = np.arange(0, 8000, dt)
        p = 1000.0 + 300.0 * np.sin(2 * np.pi * t / 400.0)
        f, _ = dominant_mode(p, dt)
        assert f == pytest.approx(1 / 400.0, rel=0.1)

    def test_trend_removed_by_differencing(self):
        """A strong linear trend must not mask the oscillation."""
        dt = 10.0
        t = np.arange(0, 8000, dt)
        p = 5.0 * t + 300.0 * np.sin(2 * np.pi * t / 400.0)
        f, _ = dominant_mode(p, dt)
        assert f == pytest.approx(1 / 400.0, rel=0.1)

    def test_amplitude_scales(self):
        dt = 10.0
        t = np.arange(0, 4000, dt)
        small = 100.0 * np.sin(2 * np.pi * t / 200.0)
        large = 1000.0 * np.sin(2 * np.pi * t / 200.0)
        _, a_small = dominant_mode(small, dt)
        _, a_large = dominant_mode(large, dt)
        assert a_large == pytest.approx(10 * a_small, rel=0.01)

    def test_short_series_nan(self):
        f, a = dominant_mode(np.array([1.0, 2.0]), 10.0)
        assert np.isnan(f) and np.isnan(a)

    def test_constant_series(self):
        f, a = dominant_mode(np.full(100, 5.0), 10.0)
        assert a == 0.0


class TestJobSummary:
    def test_per_job_rows(self):
        t = np.arange(0, 2000, 10.0)  # the coarsen window
        p1 = 100 + 50 * np.sign(np.sin(2 * np.pi * t / 200.0))
        p2 = np.full_like(t, 300.0)
        js = Table(
            {
                "allocation_id": np.concatenate(
                    [np.full(len(t), 1), np.full(len(t), 2)]
                ).astype(np.int64),
                "timestamp": np.concatenate([t, t]),
                "sum_inp": np.concatenate([p1, p2]),
            }
        )
        out = job_spectral_summary(js)
        assert out.n_rows == 2
        row1 = out.filter(out["allocation_id"] == 1)
        assert row1["fft_freq_hz"][0] == pytest.approx(0.005, rel=0.2)
        row2 = out.filter(out["allocation_id"] == 2)
        assert row2["fft_amplitude_w"][0] == 0.0

    def test_short_jobs_get_nan(self):
        js = Table(
            {
                "allocation_id": np.array([5, 5], dtype=np.int64),
                "timestamp": np.array([0.0, 10.0]),
                "sum_inp": np.array([1.0, 2.0]),
            }
        )
        out = job_spectral_summary(js)
        assert np.isnan(out["fft_freq_hz"][0])
        assert out["n_samples"][0] == 2

    def test_twin_dominant_period_near_200s(self, job_series):
        """Figure 10: the most common dominant period is ~200 s.

        Checked over jobs whose dominant swing is significant (>50 W/node):
        the modal bin of the period histogram must straddle 200 s, with the
        high-frequency taper the paper describes.
        """
        out = job_spectral_summary(job_series)
        f, a = out["fft_freq_hz"], out["fft_amplitude_w"]
        per_node = {
            int(i): int(c)
            for i, c in zip(job_series["allocation_id"],
                            job_series["count_hostname"])
        }
        nodes = np.array([per_node[int(i)] for i in out["allocation_id"]])
        sig = np.isfinite(f) & (f > 0) & (a / nodes > 50.0)
        periods = 1.0 / f[sig]
        assert sig.sum() > 50
        bins = np.array([0, 50, 100, 150, 250, 400, 1000, 1e9])
        hist, _ = np.histogram(periods, bins=bins)
        assert np.argmax(hist) == 3  # the 150-250 s bin wins
        assert 80.0 < np.median(periods) < 350.0
