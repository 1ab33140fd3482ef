"""Unit tests for distribution statistics."""

import numpy as np
import pytest

from repro.core.density import (
    boxplot_stats,
    kde_2d,
    quantiles,
)


class TestEcdf:
    def test_quantiles(self):
        q = quantiles(np.arange(101, dtype=np.float64))
        assert np.allclose(q, [20.0, 50.0, 80.0])


class TestBoxplot:
    def test_known_values(self):
        v = np.arange(1, 101, dtype=np.float64)
        st = boxplot_stats(v)
        assert st["median"] == pytest.approx(50.5)
        assert st["q1"] == pytest.approx(25.75)
        assert st["whisker_lo"] == 1.0
        assert st["whisker_hi"] == 100.0
        assert st["n_outliers"] == 0

    def test_outliers_excluded_from_whiskers(self):
        v = np.concatenate([np.arange(1, 101, dtype=np.float64), [10_000.0]])
        st = boxplot_stats(v)
        assert st["whisker_hi"] == 100.0
        assert st["n_outliers"] == 1

    def test_spread_definition(self):
        v = np.arange(1, 101, dtype=np.float64)
        st = boxplot_stats(v)
        assert st["spread"] == st["whisker_hi"] - st["whisker_lo"]

    def test_empty(self):
        st = boxplot_stats(np.array([]))
        assert np.isnan(st["median"])


class TestKde:
    def test_kde_2d_shape(self, rng):
        x = rng.lognormal(10, 1, 300)
        y = rng.lognormal(15, 1, 300)
        out = kde_2d(x, y, n_grid=32, log_x=True, log_y=True)
        assert out["density"].shape == (32, 32)
        assert out["density"].max() > 0

    def test_kde_2d_correlated_ridge(self, rng):
        x = rng.normal(0, 1, 800)
        y = x + rng.normal(0, 0.1, 800)
        out = kde_2d(x, y, n_grid=48)
        # density along the diagonal beats the anti-diagonal
        d = out["density"]
        diag = np.trace(d)
        anti = np.trace(d[::-1])
        assert diag > 2 * anti

    def test_kde_2d_too_few_points(self):
        out = kde_2d(np.array([1.0]), np.array([2.0]))
        assert np.all(out["density"] == 0)


class TestModality2d:
    def test_two_separated_blobs(self):
        from repro.core.density import modality_count_2d

        d = np.zeros((20, 20))
        d[5, 5] = 1.0
        d[15, 15] = 0.7
        assert modality_count_2d(d) == 2

    def test_flat_zero(self):
        from repro.core.density import modality_count_2d

        assert modality_count_2d(np.zeros((5, 5))) == 0

    def test_threshold_filters_small_bumps(self):
        from repro.core.density import modality_count_2d

        d = np.zeros((20, 20))
        d[5, 5] = 1.0
        d[15, 15] = 0.01   # below the 5% threshold
        assert modality_count_2d(d) == 1

    def test_kde_blobs(self, rng):
        from repro.core.density import kde_2d, modality_count_2d

        x = np.concatenate([rng.normal(0, 0.3, 300), rng.normal(6, 0.3, 300)])
        y = np.concatenate([rng.normal(0, 0.3, 300), rng.normal(6, 0.3, 300)])
        out = kde_2d(x, y, n_grid=40)
        assert modality_count_2d(out["density"]) == 2
