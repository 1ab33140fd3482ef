"""Unit tests for floor topology."""

import numpy as np
import pytest

from repro.config import SUMMIT
from repro.machine import Topology
from repro.machine.topology import GPU_COOLING_POSITION, GPU_CPU_SOCKET


class TestFullScale:
    def test_counts(self):
        t = Topology(SUMMIT)
        d = t.describe()
        assert d["nodes"] == 4626
        assert d["cabinets"] == 257
        assert d["gpus"] == 27_756
        assert d["cpus"] == 9_252
        assert d["msbs"] == 5

    def test_cabinet_population(self):
        t = Topology(SUMMIT)
        counts = np.bincount(t.node_cabinet)
        # 257 cabinets x 18 nodes = 4,626 exactly (Table 1)
        assert np.all(counts == 18)
        assert len(counts) == 257

    def test_msb_partition_covers_all_nodes(self):
        t = Topology(SUMMIT)
        total = sum(len(t.nodes_of_msb(m)) for m in range(t.n_msbs))
        assert total == 4626

    def test_msb_near_balanced(self):
        t = Topology(SUMMIT)
        sizes = [len(t.nodes_of_msb(m)) for m in range(5)]
        assert max(sizes) - min(sizes) <= 2 * 18


class TestScaled:
    def test_small_machine(self):
        t = Topology(SUMMIT.scaled(90))
        assert t.n_nodes == 90
        assert t.n_cabinets == 5
        assert t.n_msbs == 5

    def test_single_cabinet(self):
        t = Topology(SUMMIT.scaled(10))
        assert t.n_cabinets == 1
        assert t.n_msbs == 1


class TestGpuMaps:
    def test_cooling_position_per_socket(self):
        assert np.array_equal(GPU_COOLING_POSITION, [0, 1, 2, 0, 1, 2])
        assert np.array_equal(GPU_CPU_SOCKET, [0, 0, 0, 1, 1, 1])


class TestGrids:
    def test_cabinet_grid_scatter(self):
        t = Topology(SUMMIT.scaled(90))
        vals = np.arange(t.n_cabinets, dtype=np.float64)
        grid = t.cabinet_grid(vals)
        assert grid.shape == (t.n_rows, t.cabinets_per_row)
        finite = grid[np.isfinite(grid)]
        assert len(finite) == t.n_cabinets
        assert np.allclose(np.sort(finite), vals)

    def test_cabinet_grid_wrong_size(self):
        t = Topology(SUMMIT.scaled(90))
        with pytest.raises(ValueError):
            t.cabinet_grid(np.zeros(3))

    def test_bad_msb_index(self):
        t = Topology(SUMMIT.scaled(90))
        with pytest.raises(IndexError):
            t.nodes_of_msb(99)

    def test_bad_cabinet_index(self):
        t = Topology(SUMMIT.scaled(90))
        with pytest.raises(IndexError):
            t.nodes_of_cabinet(-1)

    def test_nodes_of_cabinet(self):
        t = Topology(SUMMIT.scaled(90))
        nodes = t.nodes_of_cabinet(0)
        assert np.array_equal(nodes, np.arange(18))
