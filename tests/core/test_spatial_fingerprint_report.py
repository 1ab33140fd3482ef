"""Unit tests for spatial analysis, fingerprinting, and report rendering."""

import numpy as np
import pytest

from repro.config import SUMMIT
from repro.core.fingerprint import (
    kmeans,
    portrait_prediction_error,
    user_portraits,
)
from repro.core.report import (
    fmt_si,
    render_cdf_quantiles,
    render_hist,
    render_series,
    render_table,
    sparkline,
)
from repro.core.spatial import cabinet_temperature_grid, spatial_locality
from repro.machine import Topology


class TestSpatial:
    @pytest.fixture()
    def topo(self):
        return Topology(SUMMIT.scaled(90))

    def test_grid_means(self, topo):
        temps = np.full((90, 6), 40.0)
        temps[:18] = 50.0  # cabinet 0 hotter
        out = cabinet_temperature_grid(topo, temps)
        grid = out["mean"]
        vals = grid[np.isfinite(grid)]
        assert vals.max() == pytest.approx(50.0)
        assert vals.min() == pytest.approx(40.0)

    def test_max_grid(self, topo):
        temps = np.full((90, 6), 40.0)
        temps[3, 2] = 77.0
        out = cabinet_temperature_grid(topo, temps)
        assert np.nanmax(out["max"]) == pytest.approx(77.0)

    def test_not_in_job_flag(self, topo):
        temps = np.full((90, 6), 40.0)
        part = np.ones(90, dtype=bool)
        part[:18] = False  # cabinet 0 not participating
        out = cabinet_temperature_grid(topo, temps, participating=part)
        assert out["not_in_job"].sum() == 1
        assert np.isnan(out["mean"][topo.cabinet_row[0], topo.cabinet_col[0]])

    def test_missing_cabinet_flag(self, topo):
        """The paper's bright-green cabinet: telemetry lost for all nodes."""
        temps = np.full((90, 6), 40.0)
        out = cabinet_temperature_grid(
            topo, temps, missing_nodes=np.arange(18, 36)
        )
        assert out["missing"].sum() == 1

    def test_wrong_node_count(self, topo):
        with pytest.raises(ValueError):
            cabinet_temperature_grid(topo, np.zeros((10, 6)))

    def test_spatial_locality_flat(self):
        g = np.full((4, 5), 40.0)
        g[0, 0] = 40.0
        out = spatial_locality(g)
        assert out["spread_c"] == 0.0

    def test_spatial_locality_row_gradient(self):
        g = np.tile(np.arange(4, dtype=np.float64)[:, None], (1, 5))
        out = spatial_locality(g)
        assert out["row_variance_share"] > 0.9

    def test_spatial_locality_nan_tolerant(self):
        g = np.full((3, 3), 42.0)
        g[1, 1] = np.nan
        g[0, 0] = 44.0
        out = spatial_locality(g)
        assert np.isfinite(out["spread_c"])


class TestKmeans:
    def test_separated_clusters(self, rng):
        a = rng.normal(0, 0.2, (50, 2))
        b = rng.normal(5, 0.2, (50, 2)) + np.array([5, 0])
        x = np.vstack([a, b])
        centers, labels = kmeans(x, 2, seed=1)
        assert len(np.unique(labels[:50])) == 1
        assert len(np.unique(labels[50:])) == 1
        assert labels[0] != labels[-1]

    def test_k_equals_n(self, rng):
        x = rng.normal(size=(5, 3))
        centers, labels = kmeans(x, 5, seed=0)
        assert len(np.unique(labels)) == 5

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 0)
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 10)

    def test_deterministic(self, rng):
        x = rng.normal(size=(40, 2))
        c1, l1 = kmeans(x, 3, seed=7)
        c2, l2 = kmeans(x, 3, seed=7)
        assert np.array_equal(l1, l2)


class TestPortraits:
    def test_user_portraits_means(self):
        feats = np.array([[1.0], [3.0], [10.0]])
        users = np.array([1, 1, 2])
        p = user_portraits(feats, users)
        assert p[1][0] == 2.0
        assert p[2][0] == 10.0

    def test_portrait_beats_global_for_user_structure(self, rng):
        """When users have distinct power habits, portraits must win."""
        n = 400
        users = rng.integers(0, 8, n)
        user_level = users * 200.0
        y = user_level + rng.normal(0, 20.0, n)
        fp = {
            "mean_w_per_node": y,
            "user_id": users,
        }
        out = portrait_prediction_error(fp, seed=1)
        assert out["mae_portrait_w"] < out["mae_global_w"]
        assert out["improvement"] > 0.3

    def test_too_few_jobs(self):
        with pytest.raises(ValueError):
            portrait_prediction_error(
                {"mean_w_per_node": np.ones(3), "user_id": np.ones(3)}
            )


class TestReport:
    def test_fmt_si(self):
        assert fmt_si(5_500_000, "W") == "5.50 MW"
        assert fmt_si(1234, "J") == "1.23 kJ"
        assert fmt_si(12.0, "W") == "12.00 W"
        assert fmt_si(float("nan")) == "nan"

    def test_render_table_aligned(self):
        out = render_table(["a", "bb"], [[1, 2.5], [30, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_sparkline_length(self):
        s = sparkline(np.sin(np.linspace(0, 10, 500)), width=40)
        assert len(s) == 40

    def test_sparkline_nan_spaces(self):
        s = sparkline(np.array([1.0, np.nan, 2.0]))
        assert s[1] == " "

    def test_render_series_contains_stats(self):
        out = render_series("power", np.array([1e6, 2e6]), "W")
        assert "1.00 MW" in out and "2.00 MW" in out

    def test_render_hist(self):
        out = render_hist(["a", "b"], [10, 5])
        assert out.count("#") > 0
        lines = out.splitlines()
        assert lines[0].count("#") == 2 * lines[1].count("#")

    def test_render_cdf(self):
        out = render_cdf_quantiles("walltime", np.arange(100.0), "s")
        assert "p50" in out and "n=100" in out

    def test_render_empty_series(self):
        assert "no data" in render_series("x", np.array([]))


class TestRenderGrid:
    def test_shape_and_scale(self):
        from repro.core.report import render_grid

        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = render_grid(g, title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert len(lines) == 4  # title + 2 rows + legend
        assert lines[1].startswith("|") and lines[1].endswith("|")

    def test_nan_renders_space(self):
        from repro.core.report import render_grid

        g = np.array([[1.0, np.nan]])
        out = render_grid(g)
        assert out.splitlines()[0][2] == " "

    def test_missing_mask(self):
        from repro.core.report import render_grid

        g = np.array([[1.0, np.nan]])
        mask = np.array([[False, True]])
        out = render_grid(g, missing_mask=mask)
        assert out.splitlines()[0] == "| G|"

    def test_all_nan(self):
        from repro.core.report import render_grid

        assert "no data" in render_grid(np.full((2, 2), np.nan))
