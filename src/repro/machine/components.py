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


#: Per-chip clip, a multiple of TDP: V100 boost can exceed nominal TDP
#: briefly; the P9 barely can.
GPU_CAP_OF_TDP = 1.1
CPU_CAP_OF_TDP = 1.05


def node_chip_power(
    util: np.ndarray,
    factors: np.ndarray,
    n_active: int,
    idle_w: float,
    tdp_w: float,
    cap_w: float,
    detail: np.ndarray | None = None,
) -> np.ndarray:
    """DC watts of one chip kind summed over each node's slots: ``(k, t)``.

    The first ``n_active`` chips of every node run at the node's
    utilisation ``util`` ``(k, t)``, clipped to 0..1; the rest idle.  A
    chip's dynamic power scales linearly between ``idle_w`` and
    ``tdp_w``, its manufacturing ``factors[:, s]`` (``(k, slots)``) scale
    only the dynamic part (leakage spread is folded in), and its watts are
    clipped at ``cap_w``.  Factors are positive, so no chip draws less
    than ``idle_w``.  P9 dynamic range is shallower than the
    GPU's (high uncore/idle draw), which is why Figure 12 shows CPU
    temperature nearly flat through MW-scale power edges.

    Slots are added in slot order, the order numpy's axis-1 sum of the
    ``(k, slots, t)`` chip array uses, so the sum is that array's sum to
    the bit.  ``detail`` ``(k, slots, t)``, when given, receives each
    chip's watts.
    """
    dyn = (tdp_w - idle_w) * np.clip(util, 0.0, 1.0)
    total = None
    for s in range(factors.shape[1]):
        if s < n_active:
            w = dyn * factors[:, s:s + 1]
            w += idle_w
            np.minimum(w, cap_w, out=w)
        else:
            # zero utilisation is exactly idle
            w = idle_w
        if detail is not None:
            detail[:, s, :] = w
        if total is None:
            total = w if s < n_active else np.full(dyn.shape, idle_w)
        else:
            total += w
    return total


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

