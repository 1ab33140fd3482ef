"""Power-aware scheduling (the paper's closing argument, made runnable).

The conclusion: "aggressive power and energy aware ... scheduling policies
can have impact even on HPC deployments like Summit that impose no power
constraints on its jobs."  This module implements the simplest such policy
— admission control against a cluster power cap — so its cost/benefit can
be measured against the unconstrained baseline:

* each queued job gets a **peak-power estimate** from its catalog profile
  (the §9 fingerprint in its cheapest form),
* a job may only start while the sum of committed peak estimates stays
  under the cap; otherwise it waits (no node reservation is earned, so
  cheaper jobs keep flowing).

The estimate is intentionally conservative (profile peak utilization at
nominal chip power), mirroring how a real facility would have to budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SummitConfig, SUMMIT
from repro.workload.apps import PROFILE_KINDS
from repro.workload.jobs import JobCatalog
from repro.workload.scheduler import ScheduleResult, Scheduler


def estimate_job_peak_w(catalog: JobCatalog) -> np.ndarray:
    """Conservative per-job peak-power estimate (W) from profile params.

    Peak utilization per kind: steady jobs sit at their base, periodic and
    phased jobs reach ``base + amp``.  Component power uses nominal curves
    (no chip draws — the scheduler cannot know which nodes it will get).
    """
    t = catalog.table
    cfg = catalog.config
    kind = t["kind_code"]
    gb, ga = t["gpu_base"], t["gpu_amp"]
    cb, ca = t["cpu_base"], t["cpu_amp"]

    steady = kind == PROFILE_KINDS.index("steady")
    gpu_peak_u = np.where(steady, gb, np.clip(gb + ga, 0.0, 1.0))
    cpu_peak_u = np.clip(cb + ca, 0.0, 1.0)

    gpu_w = cfg.gpu_idle_w + (cfg.gpu_tdp_w - cfg.gpu_idle_w) * gpu_peak_u
    cpu_w = cfg.cpu_idle_w + (cfg.cpu_tdp_w - cfg.cpu_idle_w) * cpu_peak_u
    node_dc = (
        t["gpus_used"] * gpu_w
        + (cfg.gpus_per_node - t["gpus_used"]) * cfg.gpu_idle_w
        + cfg.cpus_per_node * cpu_w
        + cfg.node_other_w
    )
    node_wall = np.minimum(node_dc / cfg.psu_efficiency, cfg.node_max_power_w)
    return t["node_count"] * node_wall


@dataclass
class PowerCapResult:
    """Power-aware scheduling outcome."""

    schedule: ScheduleResult
    #: the configured cap (W)
    power_cap_w: float
    #: committed peak-power estimate over time: (times, watts) step series
    commitment: tuple[np.ndarray, np.ndarray]
    #: jobs whose start the cap delayed at least once
    n_power_delayed: int


class PowerAwareScheduler(Scheduler):
    """EASY scheduler with admission control against a cluster power cap.

    Idle nodes still draw idle power, so the budget tracks
    ``idle_floor + sum(job peak estimate - job idle share)`` — a job's
    *increment* over the idle floor is what it commits.
    """

    def __init__(
        self,
        power_cap_w: float,
        config: SummitConfig = SUMMIT,
        seed: int = 0,
    ):
        super().__init__(config, seed)
        self.power_cap_w = float(power_cap_w)
        self._idle_floor = config.n_nodes * config.node_idle_w

    def run(self, catalog: JobCatalog, horizon_s: float) -> ScheduleResult:
        """Schedule under the cap; every run starts from a clean budget."""
        self._catalog = catalog
        self._peaks = estimate_job_peak_w(catalog)
        self._committed_w = 0.0
        self._events: list[tuple[float, float]] = []
        self._delayed: set[int] = set()
        return super().run(catalog, horizon_s)

    def _increment_w(self, row: int) -> float:
        peak = float(self._peaks[row])
        idle_share = (
            float(self._catalog.table["node_count"][row])
            * self.config.node_idle_w
        )
        return max(peak - idle_share, 0.0)

    def admit(self, catalog: JobCatalog, row: int, now: float) -> bool:
        total = self._idle_floor + self._committed_w + self._increment_w(row)
        if total <= self.power_cap_w:
            return True
        self._delayed.add(row)
        return False

    def on_start(self, catalog: JobCatalog, row: int, now: float) -> None:
        self._committed_w += self._increment_w(row)
        self._events.append((now, self._idle_floor + self._committed_w))

    def on_release(self, catalog: JobCatalog, row: int, now: float) -> None:
        self._committed_w -= self._increment_w(row)
        self._events.append((now, self._idle_floor + self._committed_w))

    def run_capped(self, catalog: JobCatalog, horizon_s: float) -> PowerCapResult:
        """:meth:`run`, returning the schedule plus cap telemetry."""
        schedule = self.run(catalog, horizon_s)
        if self._events:
            times = np.array([e[0] for e in self._events])
            watts = np.array([e[1] for e in self._events])
            order = np.argsort(times, kind="stable")
            commitment = (times[order], watts[order])
        else:
            commitment = (np.empty(0), np.empty(0))
        return PowerCapResult(
            schedule=schedule,
            power_cap_w=self.power_cap_w,
            commitment=commitment,
            n_power_delayed=len(self._delayed),
        )
