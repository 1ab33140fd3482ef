"""Component power models with manufacturing variation.

Section 6.2: at near-identical load the non-outlier spread of per-GPU power
was ~62 W and of core temperature ~15.8 degC, attributed to manufacturing
variation and cooling-path position.  We model each chip with a fixed
multiplicative power factor and thermal resistance drawn once per chip
(lognormal, sigma from :class:`~repro.config.SummitConfig`).
"""

from __future__ import annotations

import numpy as np

from repro.config import SummitConfig, SUMMIT


def gpu_power(
    utilization: np.ndarray,
    config: SummitConfig = SUMMIT,
    power_factor: np.ndarray | float = 1.0,
) -> np.ndarray:
    """DC power of V100 GPUs at the given utilization (0..1).

    Dynamic power scales linearly between idle and TDP; the per-chip
    ``power_factor`` scales only the dynamic part (leakage spread is folded
    in).  Output is clipped to 1.1x TDP — V100 boost can exceed nominal TDP
    briefly.
    """
    u = np.clip(np.asarray(utilization, dtype=np.float64), 0.0, 1.0)
    dyn = (config.gpu_tdp_w - config.gpu_idle_w) * u * power_factor
    return np.clip(config.gpu_idle_w + dyn, 0.0, config.gpu_tdp_w * 1.1)


def cpu_power(
    utilization: np.ndarray,
    config: SummitConfig = SUMMIT,
    power_factor: np.ndarray | float = 1.0,
) -> np.ndarray:
    """DC power of Power9 CPUs at the given utilization (0..1).

    P9 dynamic range is shallower than the GPU's (high uncore/idle draw),
    which is why Figure 12 shows CPU temperature nearly flat through MW-scale
    power edges.
    """
    u = np.clip(np.asarray(utilization, dtype=np.float64), 0.0, 1.0)
    dyn = (config.cpu_tdp_w - config.cpu_idle_w) * u * power_factor
    return np.clip(config.cpu_idle_w + dyn, 0.0, config.cpu_tdp_w * 1.05)


class ChipPopulation:
    """Per-chip manufacturing draws for every CPU and GPU in the machine.

    Attributes
    ----------
    gpu_power_factor, cpu_power_factor:
        Multiplicative dynamic-power factors, lognormal around 1.
    gpu_thermal_r, cpu_thermal_r:
        Thermal resistance (degC per W) from junction to cold-plate water,
        lognormal around the nominal values.
    """

    #: Nominal junction->water thermal resistance.  ~0.085 K/W puts a 300 W
    #: GPU ~25 degC above its water; with 21 degC supply that lands cores in
    #: the 40-60 degC band of Figures 15/17.
    GPU_THERMAL_R_NOMINAL = 0.085
    CPU_THERMAL_R_NOMINAL = 0.055

    def __init__(self, config: SummitConfig = SUMMIT, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC41B]))
        n_gpu = config.n_nodes * config.gpus_per_node
        n_cpu = config.n_nodes * config.cpus_per_node
        sp = config.chip_power_sigma
        st = config.chip_thermal_sigma
        self.gpu_power_factor = _lognormal_unit_mean(rng, sp, n_gpu)
        self.cpu_power_factor = _lognormal_unit_mean(rng, sp, n_cpu)
        self.gpu_thermal_r = self.GPU_THERMAL_R_NOMINAL * _lognormal_unit_mean(
            rng, st, n_gpu
        )
        self.cpu_thermal_r = self.CPU_THERMAL_R_NOMINAL * _lognormal_unit_mean(
            rng, st, n_cpu
        )

    def gpu_factors_of_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """(len(nodes), 6) power factors for the GPUs of ``nodes``."""
        g = self.config.gpus_per_node
        idx = np.asarray(nodes, dtype=np.int64)[:, None] * g + np.arange(g)
        return self.gpu_power_factor[idx]

    def cpu_factors_of_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """(len(nodes), 2) power factors for the CPUs of ``nodes``."""
        c = self.config.cpus_per_node
        idx = np.asarray(nodes, dtype=np.int64)[:, None] * c + np.arange(c)
        return self.cpu_power_factor[idx]

    def gpu_thermal_of_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """(len(nodes), 6) thermal resistances for the GPUs of ``nodes``."""
        g = self.config.gpus_per_node
        idx = np.asarray(nodes, dtype=np.int64)[:, None] * g + np.arange(g)
        return self.gpu_thermal_r[idx]

    def cpu_thermal_of_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """(len(nodes), 2) thermal resistances for the CPUs of ``nodes``."""
        c = self.config.cpus_per_node
        idx = np.asarray(nodes, dtype=np.int64)[:, None] * c + np.arange(c)
        return self.cpu_thermal_r[idx]


def _lognormal_unit_mean(
    rng: np.random.Generator, sigma: float, n: int
) -> np.ndarray:
    """Lognormal draws with mean exactly 1 (mu = -sigma^2/2)."""
    if sigma <= 0:
        return np.ones(n)
    return rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=n)

