"""Unit tests for component power models and chip variation."""

import numpy as np
import pytest

from repro.config import SUMMIT
from repro.machine import ChipPopulation
from repro.machine.components import (CPU_CAP_OF_TDP, GPU_CAP_OF_TDP,
                                      node_chip_power)


def _one_chip(u, factor, idle_w, tdp_w, cap_w):
    """Watts of a single chip on a single node at utilisations ``u``."""
    u = np.asarray(u, dtype=np.float64)
    return node_chip_power(u[None, :], np.array([[factor]]), 1,
                           idle_w, tdp_w, cap_w)[0]


def gpu_power(u, power_factor=1.0):
    cfg = SUMMIT
    return _one_chip(u, power_factor, cfg.gpu_idle_w, cfg.gpu_tdp_w,
                     cfg.gpu_tdp_w * GPU_CAP_OF_TDP)


def cpu_power(u, power_factor=1.0):
    cfg = SUMMIT
    return _one_chip(u, power_factor, cfg.cpu_idle_w, cfg.cpu_tdp_w,
                     cfg.cpu_tdp_w * CPU_CAP_OF_TDP)


class TestPowerCurves:
    def test_gpu_idle_and_tdp(self):
        assert gpu_power(np.array([0.0]))[0] == SUMMIT.gpu_idle_w
        assert np.isclose(gpu_power(np.array([1.0]))[0], SUMMIT.gpu_tdp_w)

    def test_cpu_idle_and_tdp(self):
        assert cpu_power(np.array([0.0]))[0] == SUMMIT.cpu_idle_w
        assert np.isclose(cpu_power(np.array([1.0]))[0], SUMMIT.cpu_tdp_w)

    def test_monotonic_in_utilization(self):
        u = np.linspace(0, 1, 50)
        assert np.all(np.diff(gpu_power(u)) >= 0)
        assert np.all(np.diff(cpu_power(u)) >= 0)

    def test_clips_out_of_range_utilization(self):
        assert gpu_power(np.array([2.0]))[0] <= SUMMIT.gpu_tdp_w * 1.1
        assert gpu_power(np.array([-1.0]))[0] == SUMMIT.gpu_idle_w

    def test_power_factor_scales_dynamic_only(self):
        hot = gpu_power(np.array([1.0]), power_factor=1.1)[0]
        nominal = gpu_power(np.array([1.0]))[0]
        assert hot > nominal
        assert gpu_power(np.array([0.0]), power_factor=1.1)[0] == SUMMIT.gpu_idle_w

    def test_boost_cap(self):
        assert gpu_power(np.array([1.0]), power_factor=2.0)[0] == SUMMIT.gpu_tdp_w * 1.1


class TestChipPopulation:
    def test_shapes(self):
        cfg = SUMMIT.scaled(30)
        pop = ChipPopulation(cfg, seed=1)
        assert pop.gpu_power_factor.shape == (180,)
        assert pop.cpu_power_factor.shape == (60,)
        assert pop.gpu_thermal_r.shape == (180,)

    def test_unit_mean(self):
        pop = ChipPopulation(SUMMIT.scaled(500), seed=1)
        assert abs(pop.gpu_power_factor.mean() - 1.0) < 0.01
        assert abs(pop.cpu_power_factor.mean() - 1.0) < 0.01

    def test_reproducible(self):
        cfg = SUMMIT.scaled(30)
        a = ChipPopulation(cfg, seed=5)
        b = ChipPopulation(cfg, seed=5)
        assert np.array_equal(a.gpu_power_factor, b.gpu_power_factor)

    def test_seed_changes_draws(self):
        cfg = SUMMIT.scaled(30)
        a = ChipPopulation(cfg, seed=5)
        b = ChipPopulation(cfg, seed=6)
        assert not np.array_equal(a.gpu_power_factor, b.gpu_power_factor)

    def test_node_lookup_shapes(self):
        cfg = SUMMIT.scaled(30)
        pop = ChipPopulation(cfg, seed=1)
        nodes = np.array([0, 3, 29])
        assert pop.gpu_factors_of_nodes(nodes).shape == (3, 6)
        assert pop.cpu_factors_of_nodes(nodes).shape == (3, 2)
        assert pop.gpu_thermal_of_nodes(nodes).shape == (3, 6)
        assert pop.cpu_thermal_of_nodes(nodes).shape == (3, 2)

    def test_node_lookup_values_align(self):
        cfg = SUMMIT.scaled(30)
        pop = ChipPopulation(cfg, seed=1)
        got = pop.gpu_factors_of_nodes(np.array([2]))[0]
        assert np.array_equal(got, pop.gpu_power_factor[12:18])

    def test_thermal_positive(self):
        pop = ChipPopulation(SUMMIT.scaled(30), seed=1)
        assert np.all(pop.gpu_thermal_r > 0)
        assert np.all(pop.cpu_thermal_r > 0)

    def test_zero_sigma_degenerate(self):
        from dataclasses import replace

        cfg = replace(SUMMIT.scaled(10), chip_power_sigma=0.0)
        pop = ChipPopulation(cfg, seed=1)
        assert np.all(pop.gpu_power_factor == 1.0)

