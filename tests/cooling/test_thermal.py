"""Unit tests for the component thermal model."""

import numpy as np
import pytest

from repro.config import SUMMIT
from repro.cooling import ComponentThermalModel, first_order_lag
from repro.machine import ChipPopulation, Topology


@pytest.fixture(scope="module")
def model():
    cfg = SUMMIT.scaled(54)
    return ComponentThermalModel(cfg, seed=2)


class TestFirstOrderLag:
    def test_step_response(self):
        x = np.concatenate([np.full(5, 10.0), np.full(100, 20.0)])
        y = first_order_lag(x, dt=1.0, tau=5.0)
        assert y[0] == 10.0
        assert y[4] == pytest.approx(10.0)
        # one tau after the step: ~63% of the way
        assert y[5 + 5] == pytest.approx(10 + 10 * (1 - np.exp(-6 / 5)), rel=0.05)
        assert y[-1] == pytest.approx(20.0, abs=0.01)

    def test_zero_tau_identity(self):
        x = np.random.default_rng(0).normal(size=50)
        assert np.array_equal(first_order_lag(x, 1.0, 0.0), x)

    def test_multidimensional(self):
        x = np.zeros((3, 2, 40))
        x[..., 20:] = 1.0
        y = first_order_lag(x, 1.0, 5.0)
        assert y.shape == x.shape
        assert np.all(y[..., -1] > 0.9)

    def test_no_startup_transient(self):
        x = np.full(30, 42.0)
        y = first_order_lag(x, 1.0, 10.0)
        assert np.allclose(y, 42.0)


class TestGpuTemperature:
    def test_steady_state_linear_in_power(self, model):
        nodes = np.arange(10)
        lo = model.gpu_temperature(nodes, np.full((10, 6), 100.0), 21.0, 10.0)
        hi = model.gpu_temperature(nodes, np.full((10, 6), 300.0), 21.0, 10.0)
        assert np.all(hi > lo)
        # slot 0 has no upstream preheat: delta is exactly R * delta-P
        r = model.chips.gpu_thermal_of_nodes(nodes)
        assert np.allclose(hi[:, 0] - lo[:, 0], r[:, 0] * 200.0, rtol=1e-6)
        assert np.allclose(hi[:, 3] - lo[:, 3], r[:, 3] * 200.0, rtol=1e-6)
        # downstream slots additionally gain the upstream preheat
        assert np.all((hi[:, 2] - lo[:, 2]) > (r[:, 2] * 200.0))

    def test_realistic_band(self, model):
        """Figure 17: at high load the vast majority of GPUs stay <60 degC."""
        nodes = np.arange(model.config.n_nodes)
        temps = model.gpu_temperature(
            nodes, np.full((model.config.n_nodes, 6), 290.0), 21.1, 10.0
        )
        assert (temps < 60.0).mean() > 0.95
        assert temps.mean() > 40.0

    def test_spread_matches_paper_scale(self, model):
        """~16 degC non-outlier spread at equal power (Section 6.2)."""
        nodes = np.arange(model.config.n_nodes)
        temps = model.gpu_temperature(
            nodes, np.full((model.config.n_nodes, 6), 280.0), 21.1, 10.0
        ).ravel()
        spread = np.percentile(temps, 99) - np.percentile(temps, 1)
        assert 8.0 < spread < 25.0

    def test_cooling_order_preheat(self, model):
        """Downstream GPUs (slots 1, 2) see warmer water than slot 0."""
        nodes = np.arange(5)
        temps = model.gpu_temperature(nodes, np.full((5, 6), 300.0), 21.0, 10.0)
        # remove chip-R variation by comparing the preheat analytically:
        # slot2 preheated by slots 0+1 -> ~(300+300)/160 = 3.75 degC
        p = np.full((5, 6), 300.0)
        no_r = temps - model.chips.gpu_thermal_of_nodes(nodes) * p
        assert np.all(no_r[:, 2] > no_r[:, 0] + 2.0)
        assert np.all(no_r[:, 1] > no_r[:, 0] + 0.5)
        # socket symmetry: slots 3..5 mirror 0..2
        assert np.allclose(no_r[:, 3:] - no_r[:, :3], 0.0, atol=1e-9)

    def test_supply_temperature_offsets(self, model):
        nodes = np.arange(4)
        p = np.full((4, 6), 200.0)
        cold = model.gpu_temperature(nodes, p, 18.0, 10.0)
        warm = model.gpu_temperature(nodes, p, 22.0, 10.0)
        assert np.allclose(warm - cold, 4.0, atol=1e-9)

    def test_time_series_lag(self, model):
        nodes = np.arange(3)
        p = np.zeros((3, 6, 180))
        p[..., 30:] = 300.0
        temps = model.gpu_temperature(nodes, p, 21.0, 1.0)
        # right after the step the lagged temp is below steady state (one
        # instant at the stepped power: the lag starts settled)
        steady = model.gpu_temperature(nodes, p[..., -1], 21.0, 1.0)
        assert np.all(temps[..., 31] < steady)
        # ten time constants later the lag has settled
        assert np.allclose(temps[..., -1], steady, atol=0.5)


class TestCpuTemperature:
    def test_cpu_flatter_than_gpu(self, model):
        """Figure 12: CPU temps stay nearly fixed through load changes."""
        nodes = np.arange(8)
        cpu_lo = model.cpu_temperature(nodes, np.full((8, 2), 120.0), 21.0, 10.0)
        cpu_hi = model.cpu_temperature(nodes, np.full((8, 2), 290.0), 21.0, 10.0)
        gpu_lo = model.gpu_temperature(nodes, np.full((8, 6), 50.0), 21.0, 10.0)
        gpu_hi = model.gpu_temperature(nodes, np.full((8, 6), 300.0), 21.0, 10.0)
        assert (gpu_hi - gpu_lo).mean() > 2.0 * (cpu_hi - cpu_lo).mean()


class TestSpatialOffsets:
    def test_cabinet_offsets_exist(self, model):
        assert model.cabinet_offset_c.shape == (model.topology.n_cabinets,)
        assert model.cabinet_offset_c.std() > 0.1

    def test_deterministic(self):
        cfg = SUMMIT.scaled(54)
        a = ComponentThermalModel(cfg, seed=9)
        b = ComponentThermalModel(cfg, seed=9)
        assert np.array_equal(a.cabinet_offset_c, b.cabinet_offset_c)
