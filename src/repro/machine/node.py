"""The IBM AC922 node power model (Figure 1-(a), Table 1).

Assembles per-component DC power into wall-plug ("input") power through the
two node power supplies.  All methods are vectorized over (nodes, time).
"""

from __future__ import annotations

import numpy as np

from repro.config import SummitConfig, SUMMIT
from repro.machine.components import ChipPopulation, cpu_power, gpu_power


class NodePowerModel:
    """Compute node input power from component utilizations.

    Utilization arrays are shaped ``(n_nodes, ...)`` and broadcast over any
    trailing time axis; component power factors come from a
    :class:`~repro.machine.components.ChipPopulation` so two nodes at equal
    load draw measurably different power (the basis of Figure 4's per-node
    error discussion and Figure 17's spread).
    """

    def __init__(
        self,
        config: SummitConfig = SUMMIT,
        chips: ChipPopulation | None = None,
    ):
        self.config = config
        self.chips = chips if chips is not None else ChipPopulation(config, 0)

    def component_power(
        self,
        nodes: np.ndarray,
        cpu_util: np.ndarray,
        gpu_util: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-component DC power.

        Parameters
        ----------
        nodes:
            Node ids, shape ``(n,)``.
        cpu_util:
            Shape ``(n, 2)`` or ``(n, 2, t)`` utilizations in 0..1.
        gpu_util:
            Shape ``(n, 6)`` or ``(n, 6, t)``.

        Returns
        -------
        (cpu_w, gpu_w):
            Arrays matching the input shapes, watts per component.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        cf = self.chips.cpu_factors_of_nodes(nodes)
        gf = self.chips.gpu_factors_of_nodes(nodes)
        cpu_util = np.asarray(cpu_util, dtype=np.float64)
        gpu_util = np.asarray(gpu_util, dtype=np.float64)
        if cpu_util.ndim == 3:
            cf = cf[..., None]
        if gpu_util.ndim == 3:
            gf = gf[..., None]
        cpu_w = cpu_power(cpu_util, self.config, cf)
        gpu_w = gpu_power(gpu_util, self.config, gf)
        return cpu_w, gpu_w

    def wall_power(self, cpu_node_w: np.ndarray, gpu_node_w: np.ndarray) -> np.ndarray:
        """DC to wall plug: per-node CPU and GPU watts plus 'other', through
        the PSU efficiency, clipped at the supply limit — the only place
        the per-sample path applies ``node_max_power_w``."""
        cfg = self.config
        return np.minimum(
            (cpu_node_w + gpu_node_w + cfg.node_other_w) / cfg.psu_efficiency,
            cfg.node_max_power_w,
        )

    def idle_power(self) -> float:
        """Wall-plug idle power of a nominal node."""
        return self.config.node_idle_w

    def peak_power(self) -> float:
        """Wall-plug power of a nominal node at full CPU+GPU load."""
        cfg = self.config
        dc = (
            cfg.cpus_per_node * cfg.cpu_tdp_w
            + cfg.gpus_per_node * cfg.gpu_tdp_w
            + cfg.node_other_w
        )
        return min(dc / cfg.psu_efficiency, cfg.node_max_power_w)
