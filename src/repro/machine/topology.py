"""Physical layout of the Summit compute floor (Figure 1-(c)).

Nodes are numbered 0..n-1 and packed 18 to a cabinet; cabinets are laid out
in floor rows; contiguous cabinet ranges hang off the five main switchboards
(MSBs A-E).  Inside a node, medium-temperature water reaches the cold plates
in a fixed serial order per CPU socket: GPU 0 -> 1 -> 2 (with CPU 0) and
GPU 3 -> 4 -> 5 (with CPU 1) — Section 6.1 tests failure rates against this
cooling order.
"""

from __future__ import annotations

import numpy as np

from repro.config import SummitConfig, SUMMIT

#: Serial cooling order of GPU slots within a node: position in the water
#: path (0 = first, coolest supply) for slots 0..5.
GPU_COOLING_POSITION = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)

#: CPU socket each GPU slot attaches to.
GPU_CPU_SOCKET = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)

#: MSB labels, Figure 4.
MSB_NAMES = ("A", "B", "C", "D", "E")


class Topology:
    """Vectorized node/cabinet/MSB coordinate maps for a (possibly scaled)
    Summit twin.

    All attributes are numpy arrays indexed by node id or cabinet id, so
    spatial analyses (Figure 17 heatmaps, MSB validation) are pure fancy
    indexing.
    """

    def __init__(self, config: SummitConfig = SUMMIT):
        self.config = config
        n = config.n_nodes
        per_cab = config.nodes_per_cabinet

        #: cabinet id per node
        self.node_cabinet = np.arange(n, dtype=np.int64) // per_cab
        n_cab = int(self.node_cabinet[-1]) + 1
        self.n_cabinets = n_cab

        #: slot of a node inside its cabinet (0..17, bottom to top)
        self.node_slot = np.arange(n, dtype=np.int64) % per_cab

        # floor layout: row-major grid of cabinets
        n_rows = max(1, min(config.n_rows, n_cab))
        per_row = -(-n_cab // n_rows)  # ceil
        cab = np.arange(n_cab, dtype=np.int64)
        #: floor row per cabinet
        self.cabinet_row = cab // per_row
        #: position within the row per cabinet
        self.cabinet_col = cab % per_row
        self.n_rows = int(self.cabinet_row[-1]) + 1
        self.cabinets_per_row = per_row

        # MSB assignment: contiguous, near-equal cabinet ranges
        n_msb = min(config.n_msbs, n_cab)
        #: MSB index per cabinet
        self.cabinet_msb = np.minimum(
            (cab * n_msb) // n_cab, n_msb - 1
        ).astype(np.int64)
        #: MSB index per node
        self.node_msb = self.cabinet_msb[self.node_cabinet]
        self.n_msbs = n_msb

    # ---------------- derived lookups ----------------

    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    @property
    def n_gpus(self) -> int:
        return self.config.n_nodes * self.config.gpus_per_node

    def nodes_of_msb(self, msb: int) -> np.ndarray:
        """Node ids fed by switchboard ``msb``."""
        if not 0 <= msb < self.n_msbs:
            raise IndexError(f"MSB index {msb} out of range 0..{self.n_msbs - 1}")
        return np.flatnonzero(self.node_msb == msb)

    def nodes_of_cabinet(self, cabinet: int) -> np.ndarray:
        """Node ids in ``cabinet``."""
        if not 0 <= cabinet < self.n_cabinets:
            raise IndexError(f"cabinet {cabinet} out of range")
        return np.flatnonzero(self.node_cabinet == cabinet)

    def cabinet_grid(self, per_cabinet: np.ndarray) -> np.ndarray:
        """Scatter a per-cabinet value vector onto the (row, col) floor grid.

        Cells with no cabinet are NaN.  This renders the Figure 17
        heatmaps.
        """
        per_cabinet = np.asarray(per_cabinet, dtype=np.float64)
        if per_cabinet.shape[0] != self.n_cabinets:
            raise ValueError(
                f"expected {self.n_cabinets} cabinet values, got {per_cabinet.shape[0]}"
            )
        grid = np.full((self.n_rows, self.cabinets_per_row), np.nan)
        grid[self.cabinet_row, self.cabinet_col] = per_cabinet
        return grid

    def describe(self) -> dict[str, int]:
        """Summary counts (Table 1 rows derived from the model)."""
        return {
            "nodes": self.n_nodes,
            "cabinets": self.n_cabinets,
            "nodes_per_cabinet": self.config.nodes_per_cabinet,
            "gpus": self.n_gpus,
            "cpus": self.config.n_nodes * self.config.cpus_per_node,
            "msbs": self.n_msbs,
            "floor_rows": self.n_rows,
        }
