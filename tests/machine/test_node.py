"""Unit tests for the AC922 node power model."""

import numpy as np
import pytest

from repro.config import SUMMIT
from repro.machine import NodePowerModel


@pytest.fixture()
def model():
    return NodePowerModel(SUMMIT.scaled(20))


def input_power(model, nodes, cpu_util, gpu_util):
    """Wall-plug node power, all six GPUs busy: the components through
    the PSU."""
    return model.wall_power(
        *model.node_dc_power(nodes, cpu_util, gpu_util, 6))


class TestNodePower:
    def test_idle_near_config(self, model):
        cfg = model.config
        nodes = np.arange(5)
        p = input_power(model, nodes, np.zeros((5, 1)), np.zeros((5, 1)))
        assert np.allclose(p, cfg.node_idle_w, rtol=0.02)

    def test_peak_capped_at_supply_limit(self, model):
        nodes = np.arange(5)
        p = input_power(model, nodes, np.ones((5, 1)), np.ones((5, 1)))
        assert np.all(p <= model.config.node_max_power_w + 1e-9)
        assert np.all(p > 2000.0)

    def test_peak_power_helper(self, model):
        assert model.peak_power() == model.config.node_max_power_w

    def test_idle_power_helper(self, model):
        assert np.isclose(model.idle_power(), model.config.node_idle_w)

    def test_time_axis_broadcast(self, model):
        nodes = np.arange(3)
        cpu = np.zeros((3, 4))
        gpu = np.tile(np.linspace(0, 1, 4), (3, 1))
        p = input_power(model, nodes, cpu, gpu)
        assert p.shape == (3, 4)
        assert np.all(np.diff(p, axis=1) >= -1e-9)

    def test_component_split_shapes(self, model):
        nodes = np.arange(4)
        detail = np.empty((4, 6, 3))
        c, g = model.node_dc_power(nodes, np.full((4, 3), 0.5),
                                   np.full((4, 3), 0.5), 6, detail)
        assert c.shape == (4, 3)
        assert g.shape == (4, 3)
        assert np.array_equal(detail.sum(axis=1), g)

    def test_unused_gpus_idle(self, model):
        nodes = np.arange(4)
        detail = np.empty((4, 6, 3))
        model.node_dc_power(nodes, np.ones((4, 3)), np.ones((4, 3)), 2,
                            detail)
        assert np.all(detail[:, 2:, :] == model.config.gpu_idle_w)
        assert np.all(detail[:, :2, :] > model.config.gpu_idle_w)

    def test_chip_variation_visible(self, model):
        """Two nodes at equal load draw different power (Section 6.2)."""
        nodes = np.arange(20)
        p = input_power(model, nodes, np.full((20, 1), 0.8), np.full((20, 1), 0.8))
        assert p.std() > 5.0  # watts of spread from manufacturing variation

    def test_gpu_dominates_dynamic_range(self, model):
        nodes = np.arange(2)
        p_gpu = input_power(model, nodes, np.zeros((2, 1)), np.ones((2, 1)))
        p_cpu = input_power(model, nodes, np.ones((2, 1)), np.zeros((2, 1)))
        idle = input_power(model, nodes, np.zeros((2, 1)), np.zeros((2, 1)))
        assert np.all((p_gpu - idle) > 2.5 * (p_cpu - idle))
