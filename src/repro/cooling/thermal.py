"""Component thermal model: chip temperatures from power and water supply.

Section 6.2 (Figure 17): GPU core temperature depends on power in a
"monotonic, near-linear way", follows power swings "in a matter of
seconds", and carries a ~16 degC spread at equal power from manufacturing
variation and cooling-path position.  We model

    T_chip(t) = lag( T_water_node + preheat(position) + R_chip * P_chip(t) )

where ``R_chip`` is the per-chip thermal resistance drawn in
:class:`~repro.machine.components.ChipPopulation`, ``preheat`` is the serial
warm-up of water as it passes upstream cold plates (GPU 0 -> 1 -> 2 per
socket), and ``lag`` is a first-order response with a seconds-scale time
constant (vectorized with ``scipy.signal.lfilter``).
"""

from __future__ import annotations

import numpy as np

from repro.config import SummitConfig, SUMMIT
from repro.machine.components import ChipPopulation
from repro.machine.topology import GPU_COOLING_POSITION, Topology


def first_order_lag(x: np.ndarray, dt: float, tau: float) -> np.ndarray:
    """First-order low-pass along the last axis with time constant ``tau``.

    Initialized at the first sample (no start-up transient), which matches
    snapshots cut out of a longer steady simulation.
    """
    from scipy.signal import lfilter

    if tau <= 0:
        return np.asarray(x, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    alpha = 1.0 - np.exp(-dt / tau)
    b = np.array([alpha])
    a = np.array([1.0, alpha - 1.0])
    # direct-form-II-transposed state for y[-1] = x[0]: z[-1] = (1-alpha)*y[-1]
    zi = (1.0 - alpha) * x[..., :1]
    y, _ = lfilter(b, a, x, axis=-1, zi=zi)
    return y


class ComponentThermalModel:
    """Chip temperatures for a machine's GPU and CPU populations."""

    #: thermal response time constant of a cold-plated chip (s)
    TAU_S = 15.0
    #: per-socket water branch heat capacity rate (W/K): a 300 W upstream
    #: GPU preheats downstream water by ~1.9 degC
    BRANCH_MCP_W_PER_K = 160.0
    #: rear-door/cabinet supply offset spread across the floor (degC)
    CABINET_OFFSET_SIGMA = 0.6

    def __init__(
        self,
        config: SummitConfig = SUMMIT,
        chips: ChipPopulation | None = None,
        topology: Topology | None = None,
        seed: int = 0,
    ):
        self.config = config
        self.chips = chips if chips is not None else ChipPopulation(config, seed)
        self.topology = topology if topology is not None else Topology(config)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E47]))
        # per-cabinet supply offset: the "slight spatial locality" of Fig. 17
        n_cab = self.topology.n_cabinets
        base = rng.normal(0.0, self.CABINET_OFFSET_SIGMA, n_cab)
        # superpose a weak row gradient (top/bottom rows run warmer)
        rows = self.topology.cabinet_row
        row_gradient = 0.35 * np.cos(
            np.pi * rows / max(self.topology.n_rows - 1, 1)
        )
        self.cabinet_offset_c = base + row_gradient

    def gpu_temperature(
        self,
        nodes: np.ndarray,
        gpu_power_w: np.ndarray,
        supply_c: np.ndarray | float,
        dt: float,
    ) -> np.ndarray:
        """GPU core temperatures.

        Parameters
        ----------
        nodes:
            Node ids, shape ``(n,)``.
        gpu_power_w:
            Per-GPU power, shape ``(n, 6, t)`` (or ``(n, 6)`` for a single
            instant).
        supply_c:
            MTW supply temperature, scalar or shape ``(t,)``.
        dt:
            Sample spacing in seconds (for the thermal lag).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        p = np.asarray(gpu_power_w, dtype=np.float64)
        single = p.ndim == 2
        if single:
            p = p[..., None]

        r = self.chips.gpu_thermal_of_nodes(nodes)[..., None]          # (n,6,1)
        cab = self.cabinet_offset_c[self.topology.node_cabinet[nodes]]  # (n,)
        water_in = np.asarray(supply_c, dtype=np.float64) + cab[:, None, None]

        # serial preheat: water reaching slot s was warmed by upstream slots
        # on the same socket branch (positions 0..2 per socket).
        pos = GPU_COOLING_POSITION  # (6,)
        preheat = np.zeros_like(p)
        for s in range(self.config.gpus_per_node):
            upstream = np.flatnonzero(
                (pos < pos[s])
                & (np.arange(6) // 3 == s // 3)
            )
            if len(upstream):
                preheat[:, s, :] = (
                    p[:, upstream, :].sum(axis=1) / self.BRANCH_MCP_W_PER_K
                )

        steady = water_in + preheat + r * p
        out = first_order_lag(steady, dt, self.TAU_S)
        return out[..., 0] if single else out

    def cpu_temperature(
        self,
        nodes: np.ndarray,
        cpu_power_w: np.ndarray,
        supply_c: np.ndarray | float,
        dt: float,
    ) -> np.ndarray:
        """CPU core temperatures, shape like ``cpu_power_w`` ``(n, 2[, t])``.

        P9 dynamic power range is shallow, so CPU temperature stays nearly
        flat through MW-scale system edges (Figure 12, row 3).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        p = np.asarray(cpu_power_w, dtype=np.float64)
        single = p.ndim == 2
        if single:
            p = p[..., None]
        r = self.chips.cpu_thermal_of_nodes(nodes)[..., None]
        cab = self.cabinet_offset_c[self.topology.node_cabinet[nodes]]
        water_in = np.asarray(supply_c, dtype=np.float64) + cab[:, None, None]
        steady = water_in + r * p
        out = first_order_lag(steady, dt, self.TAU_S)
        return out[..., 0] if single else out
