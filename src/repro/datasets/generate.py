"""Twin simulation driver and direct dataset synthesis.

Two equivalent routes produce the job-wise power series (Dataset 3):

* **pipeline** — dense traces -> 1 Hz telemetry -> 10 s coarsening ->
  interval join -> grouped collapse (the paper's actual Dask pipeline;
  exercised on windows and in integration tests), and
* **direct** — evaluate each job's profile on its own 10 s grid and reduce
  across its nodes immediately (no dense cluster arrays), which scales to
  a year of jobs.

Both evaluate an allocation through the one kernel in
:mod:`repro.workload.traces` (:func:`~repro.workload.traces.allocation_noise`,
:func:`~repro.workload.traces.allocation_chunks`) and
:meth:`~repro.machine.node.NodePowerModel.wall_power`, so they agree to
sensor noise; this module keeps only the reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.config import SummitConfig, SUMMIT
from repro.cooling.plant import CentralEnergyPlant, PlantState
from repro.cooling.thermal import ComponentThermalModel
from repro.cooling.weather import Weather
from repro.failures.model import FailureLog, generate_failures, job_thermal_summary
from repro.frame.table import Table
from repro.machine.components import ChipPopulation
from repro.machine.node import NodePowerModel
from repro.machine.topology import Topology
from repro.telemetry.collector import TelemetrySampler, LossEvent
from repro.telemetry.msb import MsbMeters
from repro.workload.jobs import JobCatalog, generate_jobs
from repro.workload.scheduler import ScheduleResult, Scheduler
from repro.workload.traces import (
    AllocationIntervalIndex,
    ClusterTraceBuilder,
    allocation_chunks,
    allocation_noise,
)


@dataclass(frozen=True)
class SimulationSpec:
    """Parameters of one twin run.

    ``start_time`` offsets the simulated window into the calendar year so
    weather (and therefore PUE/chiller behavior) matches the season; the
    paper's "summer" experiments use late July (day ~205).
    """

    n_nodes: int = 180
    n_jobs: int = 4000
    horizon_s: float = 7 * 86_400.0
    seed: int = 0
    start_time: float = 0.0
    failure_intensity: float = 1.0
    utilization_hint: float | None = None
    #: maintenance windows (relative seconds): no job starts inside one,
    #: so the machine drains toward idle (Figure 5's idle-touching dips)
    drain_windows: tuple[tuple[float, float], ...] = ()

    def config(self) -> SummitConfig:
        return SUMMIT.scaled(self.n_nodes)


@dataclass
class TwinData:
    """A fully simulated deployment plus cached derived artifacts."""

    spec: SimulationSpec
    config: SummitConfig
    catalog: JobCatalog
    schedule: ScheduleResult
    chips: ChipPopulation
    topology: Topology
    weather: Weather
    plant: CentralEnergyPlant

    @cached_property
    def builder(self) -> ClusterTraceBuilder:
        """Dense trace builder (pipeline route)."""
        return ClusterTraceBuilder(
            self.catalog, self.schedule, self.chips, seed=self.spec.seed
        )

    @cached_property
    def thermal(self) -> ComponentThermalModel:
        return ComponentThermalModel(
            self.config, self.chips, self.topology, seed=self.spec.seed
        )

    @cached_property
    def msb(self) -> MsbMeters:
        return MsbMeters(self.topology, seed=self.spec.seed)

    @cached_property
    def failures(self) -> FailureLog:
        return generate_failures(
            self.catalog,
            self.schedule,
            seed=self.spec.seed,
            intensity=self.spec.failure_intensity,
        )

    @cached_property
    def job_thermal(self) -> Table:
        return job_thermal_summary(self.catalog)

    def sampler(self, loss_events: tuple[LossEvent, ...] = ()) -> TelemetrySampler:
        return TelemetrySampler(self.config, self.spec.seed, loss_events)

    # ---------------- direct (year-scale) datasets ----------------

    def cluster_power(self, dt: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
        """(times, total input power W) over the whole horizon."""
        return cluster_power_direct(
            self.catalog, self.schedule, self.chips, self.spec.horizon_s, dt,
            seed=self.spec.seed,
        )

    def job_series(self, components: bool = False) -> Table:
        """Dataset 3 (or 3+4 with ``components``) for every started job,
        at the coarsen window."""
        return job_power_series_direct(
            self.catalog, self.schedule, self.chips,
            dt=self.config.coarsen_window_s,
            components=components, seed=self.spec.seed,
        )

    def plant_state(self, dt: float = 60.0) -> PlantState:
        """Dataset 12 analogue over the horizon (IT load from the twin)."""
        times, power = self.cluster_power(dt)
        return self.plant.simulate(times + self.spec.start_time, power)


def simulate_twin(spec: SimulationSpec) -> TwinData:
    """Generate a deployment: jobs -> schedule -> machine population."""
    config = spec.config()
    catalog = generate_jobs(
        config,
        n_jobs=spec.n_jobs,
        horizon_s=spec.horizon_s,
        seed=spec.seed,
        utilization_hint=spec.utilization_hint,
    )
    scheduler = Scheduler(config, seed=spec.seed, drain_windows=spec.drain_windows)
    schedule = scheduler.run(catalog, spec.horizon_s)
    chips = ChipPopulation(config, seed=spec.seed)
    topology = Topology(config)
    weather = Weather(seed=spec.seed)
    plant = CentralEnergyPlant(config, weather)
    return TwinData(
        spec=spec,
        config=config,
        catalog=catalog,
        schedule=schedule,
        chips=chips,
        topology=topology,
        weather=weather,
        plant=plant,
    )


def _job_grids(
    begin: float, end: float, dt: float
) -> np.ndarray:
    """10 s-aligned sample times within [begin, end)."""
    t0 = np.ceil(begin / dt) * dt
    return np.arange(t0, end, dt)


#: Dataset 4 column names, in output order
_COMPONENT_COLS = (
    "mean_cpu_power", "std_cpu_power", "max_cpu_power",
    "mean_gpu_power", "std_gpu_power", "max_gpu_power",
)


def _job_series_block(
    catalog: JobCatalog,
    schedule: ScheduleResult,
    model: NodePowerModel,
    i: int,
    dt: float,
    components: bool,
    seed: int,
) -> dict[str, np.ndarray] | None:
    """One allocation row's sample block (column name -> array), or None.

    This is the per-job kernel shared by the single-pass path and the
    chunked pipeline, so both produce bit-identical samples.
    """
    al = schedule.allocations
    aid = int(al["allocation_id"][i])
    begin = float(al["begin_time"][i])
    end = float(al["end_time"][i])
    times = _job_grids(begin, end, dt)
    if len(times) == 0:
        return None
    nodes = schedule.nodes_of(aid)
    n_nodes = len(nodes)

    sums = np.empty(len(times))
    means = np.empty(len(times))
    maxs = np.empty(len(times))
    cstats = {k: np.empty(len(times)) for k in _COMPONENT_COLS} if components else {}
    for chunk, cpu_node, gpu_node, _ in allocation_chunks(
        model, catalog, catalog.row_of_allocation(aid), nodes,
        allocation_noise(seed, aid, n_nodes), times, 0, len(times),
        begin, end,
    ):
        inp = model.wall_power(cpu_node, gpu_node)
        sums[chunk] = inp.sum(axis=0)
        means[chunk] = inp.mean(axis=0)
        maxs[chunk] = inp.max(axis=0)
        if components:
            cstats["mean_cpu_power"][chunk] = cpu_node.mean(axis=0)
            cstats["std_cpu_power"][chunk] = cpu_node.std(axis=0)
            cstats["max_cpu_power"][chunk] = cpu_node.max(axis=0)
            cstats["mean_gpu_power"][chunk] = gpu_node.mean(axis=0)
            cstats["std_gpu_power"][chunk] = gpu_node.std(axis=0)
            cstats["max_gpu_power"][chunk] = gpu_node.max(axis=0)

    block = {
        "allocation_id": np.full(len(times), aid, np.int64),
        "timestamp": times,
        "count_hostname": np.full(len(times), n_nodes, np.int64),
        "sum_inp": sums,
        "mean_inp": means,
        "max_inp": maxs,
    }
    for kk in cstats:
        block[kk] = cstats[kk]
    return block


def _empty_job_series(components: bool) -> Table:
    cols: dict[str, np.ndarray] = {
        "allocation_id": np.empty(0, np.int64),
        "timestamp": np.empty(0, np.float64),
        "count_hostname": np.empty(0, np.int64),
        "sum_inp": np.empty(0, np.float64),
        "mean_inp": np.empty(0, np.float64),
        "max_inp": np.empty(0, np.float64),
    }
    if components:
        for kk in _COMPONENT_COLS:
            cols[kk] = np.empty(0, np.float64)
    return Table(cols)


def job_power_series_direct(
    catalog: JobCatalog,
    schedule: ScheduleResult,
    chips: ChipPopulation,
    dt: float = 10.0,
    components: bool = False,
    seed: int | None = None,
    rows: np.ndarray | None = None,
    allow_empty: bool = False,
) -> Table:
    """Dataset 3 (plus Dataset 4 columns when ``components``) per job.

    Per-job node noise uses the same seeds as
    :class:`~repro.workload.traces.ClusterTraceBuilder`, so this direct
    route and the dense-pipeline route agree (tested property).

    ``rows`` restricts the computation to a subset of allocation rows (the
    chunked pipeline passes one time-window's jobs at a time); with
    ``allow_empty`` a sample-less subset returns an empty, correctly-typed
    table instead of raising.
    """
    cfg = catalog.config
    model = NodePowerModel(cfg, chips)
    al = schedule.allocations
    seed = seed if seed is not None else 0
    row_iter = range(al.n_rows) if rows is None else [int(r) for r in rows]

    blocks = []
    for i in row_iter:
        block = _job_series_block(catalog, schedule, model, i, dt, components, seed)
        if block is not None:
            blocks.append(block)

    if not blocks:
        if allow_empty:
            return _empty_job_series(components)
        raise ValueError("no job produced any samples (horizon too short?)")
    return Table({
        k: np.concatenate([b[k] for b in blocks]) for k in blocks[0]
    })


def cluster_power_window(
    catalog: JobCatalog,
    schedule: ScheduleResult,
    chips: ChipPopulation,
    w0: int,
    w1: int,
    dt: float = 10.0,
    seed: int = 0,
    *,
    index: AllocationIntervalIndex,
) -> np.ndarray:
    """Cluster input power over global sample indices ``[w0, w1)``.

    Sample ``k`` sits at time ``k * dt``; the function returns exactly the
    ``power[w0:w1]`` slice :func:`cluster_power_direct` would produce — every
    per-sample value is computed elementwise, so splitting the horizon into
    windows (the chunked pipeline) is bit-identical to one pass.

    ``index`` (an :class:`~repro.workload.traces.AllocationIntervalIndex`
    over ``schedule.allocations``) prunes the allocation walk to the rows
    overlapping the window, in ascending row order, so windows accumulate
    in the order one pass would.
    """
    cfg = catalog.config
    model = NodePowerModel(cfg, chips)
    times = np.arange(w0, w1, dtype=np.float64) * dt
    power = np.full(len(times), cfg.n_nodes * cfg.node_idle_w)
    idle_w = cfg.node_idle_w

    al = schedule.allocations
    for i in index.active_rows(w0 * dt, w1 * dt).tolist():
        aid = int(al["allocation_id"][i])
        begin = float(al["begin_time"][i])
        end = float(al["end_time"][i])
        i0 = int(np.searchsorted(times, begin, side="left"))
        i1 = int(np.searchsorted(times, end, side="left"))
        if i1 <= i0:
            continue
        nodes = schedule.nodes_of(aid)
        n_nodes = len(nodes)
        for chunk, c_w, g_w, _ in allocation_chunks(
            model, catalog, catalog.row_of_allocation(aid), nodes,
            allocation_noise(seed, aid, n_nodes), times, i0, i1, begin, end,
        ):
            inp = model.wall_power(c_w, g_w)
            power[chunk] += inp.sum(axis=0) - n_nodes * idle_w
    return power


def cluster_power_direct(
    catalog: JobCatalog,
    schedule: ScheduleResult,
    chips: ChipPopulation,
    horizon_s: float,
    dt: float = 10.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Total cluster input power over the horizon without dense node arrays.

    Superposes each job's summed power onto an idle baseline — the same
    superposition :class:`~repro.workload.traces.ClusterTraceBuilder`
    performs, O(total job samples) instead of O(nodes x time).
    """
    times = np.arange(0.0, horizon_s, dt)
    power = cluster_power_window(
        catalog, schedule, chips, 0, len(times), dt=dt, seed=seed,
        index=AllocationIntervalIndex(schedule.allocations),
    )
    return times, power
