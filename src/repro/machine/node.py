"""The IBM AC922 node power model (Figure 1-(a), Table 1).

Sums per-chip DC power into per-node CPU and GPU watts, then takes them to
wall-plug ("input") power through the two node power supplies.  All
methods are vectorized over (nodes, time).
"""

from __future__ import annotations

import numpy as np

from repro.config import SummitConfig, SUMMIT
from repro.machine.components import (CPU_CAP_OF_TDP, GPU_CAP_OF_TDP,
                                      ChipPopulation, node_chip_power)


class NodePowerModel:
    """Compute node input power from component utilizations.

    Utilization arrays are shaped ``(nodes, time)``, one row per node;
    per-chip power factors come from a
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

    def node_dc_power(
        self,
        nodes: np.ndarray,
        cpu_util: np.ndarray,
        gpu_util: np.ndarray,
        gpus_used: int,
        gpu_detail: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-node DC watts of the two CPUs and the six GPUs.

        Parameters
        ----------
        nodes:
            Node ids, shape ``(k,)``.
        cpu_util, gpu_util:
            Shape ``(k, t)``: one utilisation row per node, shared by
            its CPUs and by its first ``gpus_used`` GPUs (the rest idle).
        gpu_detail:
            Optional ``(k, 6, t)`` array that receives each GPU's watts.

        Returns
        -------
        (cpu_w, gpu_w):
            ``(k, t)`` arrays, watts summed over each node's chips.
        """
        cfg = self.config
        cpu_w = node_chip_power(
            cpu_util, self.chips.cpu_factors_of_nodes(nodes),
            cfg.cpus_per_node, cfg.cpu_idle_w, cfg.cpu_tdp_w,
            cfg.cpu_tdp_w * CPU_CAP_OF_TDP,
        )
        gpu_w = node_chip_power(
            gpu_util, self.chips.gpu_factors_of_nodes(nodes), gpus_used,
            cfg.gpu_idle_w, cfg.gpu_tdp_w, cfg.gpu_tdp_w * GPU_CAP_OF_TDP,
            gpu_detail,
        )
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
