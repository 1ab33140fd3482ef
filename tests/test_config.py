"""Unit tests for the configuration module."""

import numpy as np
import pytest

from repro.config import (
    SCHEDULING_CLASSES,
    SUMMIT,
    SummitConfig,
    fahrenheit_to_celsius,
)


class TestSchedulingClasses:
    def test_table3_values(self):
        assert [c.min_nodes for c in SCHEDULING_CLASSES] == [2765, 922, 92, 46, 1]
        assert [c.max_nodes for c in SCHEDULING_CLASSES] == [4608, 2764, 921, 91, 45]
        assert [c.max_walltime_h for c in SCHEDULING_CLASSES] == [24, 24, 12, 6, 2]


class TestSummitConfig:
    def test_totals(self):
        assert SUMMIT.n_gpus == 27_756

    def test_node_idle_consistent_with_system_idle(self):
        # idle power x nodes ~ 2.5 MW (Section 4.1)
        assert abs(SUMMIT.node_idle_w * SUMMIT.n_nodes / 1e6 - 2.5) < 0.3

    def test_scaled_preserves_per_node_physics(self):
        s = SUMMIT.scaled(100)
        assert s.n_nodes == 100
        assert s.cpu_tdp_w == SUMMIT.cpu_tdp_w
        assert s.node_max_power_w == SUMMIT.node_max_power_w
        assert s.node_idle_w == SUMMIT.node_idle_w

    def test_scaled_envelope_linear(self):
        s = SUMMIT.scaled(SUMMIT.n_nodes // 2)
        assert s.system_peak_mw == pytest.approx(SUMMIT.system_peak_mw / 2, rel=0.01)

    def test_scaled_cabinets_ceil(self):
        s = SUMMIT.scaled(19)
        assert s.n_cabinets == 2

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            SUMMIT.scaled(0)

    def test_scaled_classes_cover_machine(self):
        for n in (10, 45, 90, 180, 500, 4626):
            cfg = SUMMIT.scaled(n) if n != 4626 else SUMMIT
            classes = cfg.scheduling_classes()
            assert classes[0].max_nodes <= cfg.n_nodes
            # every node count from 1..max is classifiable
            for k in (1, classes[0].max_nodes, classes[0].max_nodes // 2):
                assert any(c.min_nodes <= k <= c.max_nodes for c in classes)

    def test_scaled_classes_nonempty(self):
        for n in (10, 50, 90, 300):
            for c in SUMMIT.scaled(n).scheduling_classes():
                assert c.min_nodes >= 1
                assert c.max_nodes >= c.min_nodes

    def test_full_scale_classes_identical(self):
        assert SUMMIT.scheduling_classes() == SCHEDULING_CLASSES

    def test_frozen(self):
        with pytest.raises(Exception):
            SUMMIT.n_nodes = 1


class TestTemperatureConversion:
    def test_roundtrip(self):
        assert fahrenheit_to_celsius(70.0) == pytest.approx(21.111, abs=1e-3)

    def test_known_points(self):
        assert fahrenheit_to_celsius(32.0) == 0.0
        assert fahrenheit_to_celsius(212.0) == 100.0
