"""System-wide configuration constants for the Summit digital twin.

All numbers are taken from the paper (Tables 1 and 3, Sections 2-6) or from
public Summit documentation quoted therein.  Everything that analyses consume
is derived from :class:`SummitConfig` so that the twin can be scaled down
(e.g. for tests) without touching any analysis code: distributional shapes are
preserved under scaling because all per-node quantities are intensive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class SchedulingClass:
    """One row of Table 3 — Summit scheduling policy.

    Node ranges are inclusive; ``max_walltime_h`` is the scheduler-enforced
    wall-clock limit in hours.
    """

    index: int
    min_nodes: int
    max_nodes: int
    max_walltime_h: float


#: Table 3 of the paper.  Class 1 and 2 are "leadership"/large-scale
#: (>20% of the machine); classes 3-5 are small-scale.
SCHEDULING_CLASSES: tuple[SchedulingClass, ...] = (
    SchedulingClass(1, 2765, 4608, 24.0),
    SchedulingClass(2, 922, 2764, 24.0),
    SchedulingClass(3, 92, 921, 12.0),
    SchedulingClass(4, 46, 91, 6.0),
    SchedulingClass(5, 1, 45, 2.0),
)


@dataclass(frozen=True)
class SummitConfig:
    """Physical and operational parameters of the Summit data center.

    The default instance (:data:`SUMMIT`) is the full-scale machine.  Use
    :meth:`scaled` to build a smaller twin with the same per-node physics.
    """

    # ---- topology (Figure 1) ----
    n_nodes: int = 4626
    nodes_per_cabinet: int = 18
    n_cabinets: int = 257
    n_msbs: int = 5          # main switchboards A-E feeding the compute floor
    n_rows: int = 12         # floor rows (h09..h36 region, abstracted)
    cpus_per_node: int = 2
    gpus_per_node: int = 6
    cores_per_cpu: int = 22

    # ---- per-component power model (Table 1) ----
    cpu_tdp_w: float = 300.0
    gpu_tdp_w: float = 300.0
    cpu_idle_w: float = 60.0
    gpu_idle_w: float = 40.0
    #: DIMMs, NVMe, HCA, fans, BMC... everything that is not CPU/GPU silicon.
    node_other_w: float = 180.0
    node_max_power_w: float = 2300.0
    #: AC/DC conversion efficiency of the two node power supplies.
    psu_efficiency: float = 0.94

    # ---- system-level envelope (Section 4.1) ----
    system_idle_mw: float = 2.5
    system_peak_mw: float = 13.0
    facility_capacity_mw: float = 20.0

    # ---- cooling plant (Table 1, Section 2) ----
    mtw_supply_f_min: float = 64.0
    mtw_supply_f_max: float = 71.0
    mtw_return_f_min: float = 80.0
    mtw_return_f_max: float = 100.0
    n_cooling_towers: int = 8
    n_chillers: int = 5
    chiller_supply_f_min: float = 42.0
    chiller_supply_f_max: float = 48.0

    # ---- telemetry path (Section 2, [32]) ----
    telemetry_rate_hz: float = 1.0
    metrics_per_node: int = 100
    collector_mean_delay_s: float = 2.5
    collector_max_delay_s: float = 5.0
    end_to_end_delay_s: float = 4.1

    # ---- analysis constants (Sections 3-4) ----
    coarsen_window_s: float = 10.0
    #: Rising/falling edge threshold: change of >868 W averaged across the
    #: nodes of a job within one 10 s step (= 4 MW at 4608 nodes).
    edge_threshold_w_per_node: float = 868.0
    #: Edge duration terminates when power returns 80% from peak to initial.
    edge_return_fraction: float = 0.8

    # ---- manufacturing variation (Sections 5-6) ----
    #: Relative sigma of per-chip power draw at equal load.
    chip_power_sigma: float = 0.035
    #: Relative sigma of per-chip thermal resistance (K/W).
    chip_thermal_sigma: float = 0.12

    @property
    def n_gpus(self) -> int:
        """Total GPU count (27,756 at full scale)."""
        return self.n_nodes * self.gpus_per_node

    @property
    def node_idle_w(self) -> float:
        """Wall-plug idle power of one node (component idle / PSU efficiency)."""
        dc = (
            self.cpus_per_node * self.cpu_idle_w
            + self.gpus_per_node * self.gpu_idle_w
            + self.node_other_w
        )
        return dc / self.psu_efficiency

    def scaled(self, n_nodes: int) -> "SummitConfig":
        """Return a reduced-scale twin with ``n_nodes`` nodes.

        Cabinet population and the system power envelope scale linearly;
        per-node physics is unchanged, so every intensive statistic the
        analyses compute is preserved.
        """
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        ratio = n_nodes / self.n_nodes
        n_cab = max(1, -(-n_nodes // self.nodes_per_cabinet))  # ceil div
        return replace(
            self,
            n_nodes=n_nodes,
            n_cabinets=n_cab,
            n_rows=max(1, min(self.n_rows, n_cab)),
            system_idle_mw=self.system_idle_mw * ratio,
            system_peak_mw=self.system_peak_mw * ratio,
            facility_capacity_mw=self.facility_capacity_mw * ratio,
        )

    def scheduling_classes(self) -> tuple[SchedulingClass, ...]:
        """Scheduling classes rescaled to this machine size.

        Node-range boundaries scale with machine size (rounded, min 1) so a
        scaled twin keeps five non-empty classes with the same fractional
        boundaries as Table 3.
        """
        if self.n_nodes == SUMMIT.n_nodes:
            return SCHEDULING_CLASSES
        ratio = self.n_nodes / SUMMIT.n_nodes
        out: list[SchedulingClass] = []
        prev_min = None
        for cls in SCHEDULING_CLASSES:
            hi = max(1, round(cls.max_nodes * ratio))
            lo = max(1, round(cls.min_nodes * ratio))
            if prev_min is not None:
                # keep classes disjoint where scale allows; at very small
                # scale adjacent classes may overlap at 1 node rather than
                # collapse to an empty range
                hi = max(1, min(hi, prev_min - 1))
                lo = max(1, min(lo, hi))
            out.append(SchedulingClass(cls.index, lo, hi, cls.max_walltime_h))
            prev_min = lo
        return tuple(out)


#: The full-scale Summit machine.
SUMMIT = SummitConfig()


def cap_workers(workers: int) -> int:
    """``workers`` clamped to ``[1, REPRO_MAX_WORKERS]``.

    The one parser of the ``REPRO_MAX_WORKERS`` environment variable,
    which caps every pool this package sizes — the executor's workers
    and the ``.rcs`` codec threads alike (useful on shared CI runners
    and inside nested pipelines).  Unset or empty means no cap; a value
    below 1 caps at 1; anything that is not an integer is an error
    rather than a silently uncapped pool.
    """
    cap = os.environ.get("REPRO_MAX_WORKERS")
    if cap:
        try:
            workers = min(workers, int(cap))
        except ValueError:
            raise ValueError(
                f"REPRO_MAX_WORKERS must be an integer, got {cap!r}"
            ) from None
    return max(1, workers)


def fahrenheit_to_celsius(f: float) -> float:
    """Convert Fahrenheit to Celsius (facility data is logged in F)."""
    return (f - 32.0) * 5.0 / 9.0

