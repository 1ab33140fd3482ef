"""Main-switchboard revenue meters (Figure 4's ground truth).

The five MSBs feed the compute cabinets.  A meter reads everything on its
feed: the node power supplies *plus* per-cabinet infrastructure (rectifier
and distribution losses, rack switches, rear-door fans) that the on-node
sensors never see.  That is why the per-node summation sits systematically
*below* the meter — the paper reports ~11% on average with a tight,
in-phase distribution (mean diff -128.83 kW across MSBs).
"""

from __future__ import annotations

import numpy as np

from repro.config import SummitConfig, SUMMIT
from repro.machine.topology import Topology

#: distribution/conversion efficiency between the meter and the node plugs
LINE_EFFICIENCY = 0.935
#: per-cabinet infrastructure load invisible to node sensors (W)
CABINET_OVERHEAD_W = 500.0
#: meter noise at full scale (one sigma, W); scales with the feed size
METER_NOISE_FULL_W = 1500.0
#: per-MSB efficiency spread (the "external factor" behind per-MSB offsets)
MSB_EFFICIENCY_SIGMA = 0.008


class MsbMeters:
    """Simulated switchboard meters over a machine topology."""

    def __init__(self, topology: Topology, seed: int = 0):
        self.topology = topology
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B5B]))
        n_msb = topology.n_msbs
        self.msb_efficiency = LINE_EFFICIENCY * (
            1.0 + rng.normal(0.0, MSB_EFFICIENCY_SIGMA, n_msb)
        )
        # cabinets per MSB (for the overhead term)
        self.cabinets_per_msb = np.bincount(
            topology.cabinet_msb, minlength=n_msb
        ).astype(np.float64)
        # meter noise proportional to feed size so scaled twins keep the
        # paper's signal-to-noise
        from repro.config import SUMMIT as _FULL
        self.meter_noise_w = METER_NOISE_FULL_W * (
            topology.config.n_nodes / _FULL.n_nodes
        )
        self._seed = seed

    def measure(self, node_input_w: np.ndarray) -> np.ndarray:
        """Meter readings, shape ``(n_msbs, n_t)``, from true node power
        ``(n_nodes, n_t)``."""
        rng = np.random.default_rng(np.random.SeedSequence([self._seed, 0x3E7]))
        node_input_w = np.asarray(node_input_w, dtype=np.float64)
        n_msb = self.topology.n_msbs
        n_t = node_input_w.shape[1]
        out = np.empty((n_msb, n_t))
        for m in range(n_msb):
            nodes = self.topology.nodes_of_msb(m)
            feed = node_input_w[nodes].sum(axis=0)
            overhead = CABINET_OVERHEAD_W * self.cabinets_per_msb[m]
            out[m] = (feed + overhead) / self.msb_efficiency[m]
        out += rng.normal(0.0, self.meter_noise_w, out.shape)
        return out

    def node_summation(
        self, measured_node_w: np.ndarray
    ) -> np.ndarray:
        """Per-MSB summation of (measured) node power, shape (n_msbs, n_t).

        This is the quantity Figure 4 compares against :meth:`measure`.
        """
        measured_node_w = np.asarray(measured_node_w, dtype=np.float64)
        n_msb = self.topology.n_msbs
        out = np.empty((n_msb, measured_node_w.shape[1]))
        for m in range(n_msb):
            nodes = self.topology.nodes_of_msb(m)
            out[m] = measured_node_w[nodes].sum(axis=0)
        return out
