"""Power-trace synthesis: from allocations + profiles to per-node power.

The builder turns a schedule and a time window into dense physical arrays
(node input power, per-node CPU/GPU component power, optional per-GPU
detail).  These are the "ground truth" the telemetry path then samples,
delays, and perturbs — keeping physics and measurement strictly separated,
as in the real system.

This module holds the only copy of "allocation → watts":
:func:`allocation_noise` (the per-node noise stream, keyed by allocation
id), :func:`allocation_power` (profile x noise → per-node CPU and GPU DC
watts through
:meth:`~repro.machine.node.NodePowerModel.node_dc_power`, the one
slot-ordered kernel) and :func:`allocation_chunks`, which evaluates it
over bounded time chunks.  :class:`ClusterTraceBuilder` scatters the
chunks into dense arrays; :mod:`repro.datasets.generate` reduces them per
job and superposes them onto the idle floor; DC → wall is
:meth:`~repro.machine.node.NodePowerModel.wall_power` for all three.

Painting walks the allocations overlapping the window (pruned against a
sorted begin-time :class:`AllocationIntervalIndex`), looks up each one's
nodes in the schedule's allocation → node index, and paints its
``(nodes, time)`` watts over bounded time chunks.  Two allocations
sharing a node never overlap in time, so writes touch disjoint cells, and
every value is elementwise in time: a window split anywhere on the sample
grid paints the same bits as the whole (tested property).  Arrays are
preallocated once and every allocation writes into slices in place; long
simulations should build day-sized windows and stream them out.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.config import SummitConfig
from repro.frame.table import Table
from repro.machine.components import ChipPopulation
from repro.machine.node import NodePowerModel
from repro.workload.apps import profile_utilization
from repro.workload.jobs import JobCatalog
from repro.workload.scheduler import ScheduleResult

#: Per-node run-to-run utilization noise (load imbalance, OS jitter).
NODE_NOISE_SIGMA = 0.02

#: Guard against accidentally materializing a year at 1 Hz.
MAX_CELLS = 100_000_000

#: (node x sample) cells per kernel call: keeps the transient ``(k, t)``
#: intermediates of a large allocation to a few MB
PAINT_CHUNK_CELLS = 65_536


def allocation_noise(seed: int, aid: int, k: int) -> np.ndarray:
    """Per-node utilization noise of allocation ``aid``, shape ``(k, 1)``.

    The stream is keyed by (seed, allocation id) alone, so every route
    that evaluates an allocation sees the same nodes run hot or cold.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A5E, aid]))
    return 1.0 + rng.normal(0.0, NODE_NOISE_SIGMA, size=(k, 1))


def allocation_power(
    model: NodePowerModel,
    catalog: JobCatalog,
    row: int,
    nodes: np.ndarray,
    noise: np.ndarray,
    t_rel: np.ndarray,
    duration: float,
    per_gpu: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-node DC watts of one allocation: ``(cpu_w, gpu_w, gpu_detail)``.

    Catalog row ``row``'s profile at ``t_rel`` seconds from the job's
    start, times the per-node ``noise``, on ``nodes``; GPU slots beyond
    the job's ``gpus_used`` stay at zero utilization (idle power).
    ``cpu_w`` and ``gpu_w`` are ``(k, t)``; ``gpu_detail`` is each GPU's
    watts, ``(k, 6, t)``, with ``per_gpu`` and None without.
    """
    cpu_u, gpu_u = profile_utilization(catalog.profile(row), t_rel, duration)
    gpu_detail = (
        np.empty((len(nodes), model.config.gpus_per_node, len(t_rel)))
        if per_gpu else None
    )
    cpu_w, gpu_w = model.node_dc_power(
        nodes, cpu_u[None, :] * noise, gpu_u[None, :] * noise,
        int(catalog.table["gpus_used"][row]), gpu_detail,
    )
    return cpu_w, gpu_w, gpu_detail


def allocation_chunks(
    model: NodePowerModel,
    catalog: JobCatalog,
    row: int,
    nodes: np.ndarray,
    noise: np.ndarray,
    times: np.ndarray,
    i0: int,
    i1: int,
    begin: float,
    end: float,
    per_gpu: bool = False,
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray | None]]:
    """:func:`allocation_power` over bounded time chunks.

    Yields ``(chunk, cpu_w, gpu_w, gpu_detail)`` for consecutive slices
    ``chunk`` of ``[i0, i1)`` of at most :data:`PAINT_CHUNK_CELLS`
    node-samples: the allocation running ``[begin, end)`` evaluated at
    ``times[chunk]``.  No chunk is one sample wide unless ``[i0, i1)``
    is: numpy sums a one-column ``(k, 1)`` block across nodes in another
    order than a wider one, and the per-job and cluster reductions would
    then depend on the chunk size.
    """
    step = max(2, PAINT_CHUNK_CELLS // len(nodes))
    c0 = i0
    while c0 < i1:
        c1 = i1 if i1 - c0 <= step + 1 else c0 + step
        chunk = slice(c0, c1)
        yield (chunk, *allocation_power(
            model, catalog, row, nodes, noise,
            times[chunk] - begin, end - begin, per_gpu,
        ))
        c0 = c1


class AllocationIntervalIndex:
    """Sorted begin-time index over an allocations table.

    ``active_rows(t0, t1)`` returns the original row indices (ascending,
    so downstream accumulation order is unchanged) of allocations
    overlapping the half-open window ``[t0, t1)`` in
    ``O(log A + candidates)`` instead of a full-table mask scan — the
    difference between O(windows x allocations) and near-linear work when
    a year of schedule is rendered window by window.
    """

    def __init__(self, allocations: Table):
        self.begin = allocations["begin_time"]
        self.end = allocations["end_time"]
        self.order = np.argsort(self.begin, kind="stable")
        self.begin_sorted = self.begin[self.order]
        self.max_duration = (
            float((self.end - self.begin).max()) if len(self.begin) else 0.0
        )

    def active_rows(self, t0: float, t1: float) -> np.ndarray:
        """Row indices with ``begin < t1 and end > t0``, ascending."""
        lo = np.searchsorted(
            self.begin_sorted, t0 - self.max_duration, side="left"
        )
        hi = np.searchsorted(self.begin_sorted, t1, side="left")
        cand = self.order[lo:hi]
        cand = cand[self.end[cand] > t0]
        cand.sort()
        return cand


@dataclass
class TraceArrays:
    """Dense physical state over a time window.

    Shapes: ``times (n_t,)``; node arrays ``(n_nodes, n_t)``; per-GPU arrays
    ``(n_nodes, gpus_per_node, n_t)`` (present only when requested).
    """

    times: np.ndarray
    node_input_w: np.ndarray
    node_cpu_w: np.ndarray
    node_gpu_w: np.ndarray
    gpu_power_w: np.ndarray | None = None
    #: allocation id active per (node, time); -1 = idle
    node_alloc: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.node_input_w.shape[0]

    @property
    def n_times(self) -> int:
        return self.times.shape[0]

    def cluster_power_w(self) -> np.ndarray:
        """Total input power time series (the Figure 5/10/11 quantity)."""
        return self.node_input_w.sum(axis=0)

    def to_table(self) -> Table:
        """Long-format table: one row per (node, time).

        Columns: ``node``, ``timestamp``, ``input_power``, ``cpu_power``
        and ``gpu_power``.
        """
        n, t = self.node_input_w.shape
        cols: dict[str, np.ndarray] = {
            "node": np.repeat(np.arange(n, dtype=np.int64), t),
            "timestamp": np.tile(self.times, n),
            "input_power": self.node_input_w.reshape(-1),
            "cpu_power": self.node_cpu_w.reshape(-1),
            "gpu_power": self.node_gpu_w.reshape(-1),
        }
        if self.node_alloc is not None:
            cols["allocation_id"] = self.node_alloc.reshape(-1)
        return Table(cols)


class ClusterTraceBuilder:
    """Synthesize dense power traces for any time window of a schedule."""

    def __init__(
        self,
        catalog: JobCatalog,
        schedule: ScheduleResult,
        chips: ChipPopulation | None = None,
        seed: int = 0,
    ):
        self.catalog = catalog
        self.schedule = schedule
        self.config: SummitConfig = catalog.config
        self.chips = chips if chips is not None else ChipPopulation(self.config, seed)
        self.node_model = NodePowerModel(self.config, self.chips)
        self.seed = seed
        self._intervals = AllocationIntervalIndex(schedule.allocations)
        # built here rather than inside the first window's paint
        schedule.node_index
        #: per-allocation noise vectors, drawn once (the stream is keyed
        #: by allocation id, so the cache cannot change any value)
        self._noise_cache: dict[int, np.ndarray] = {}

    def _noise_of(self, aid: int, k: int) -> np.ndarray:
        """Cached :func:`allocation_noise` of allocation ``aid``."""
        noise = self._noise_cache.get(aid)
        if noise is None:
            noise = self._noise_cache[aid] = allocation_noise(self.seed, aid, k)
        return noise

    def active_allocations(self, t0: float, t1: float) -> Table:
        """Allocations overlapping the half-open window [t0, t1)."""
        return self.schedule.allocations.take(
            self._intervals.active_rows(t0, t1)
        )

    def build(
        self,
        t0: float,
        t1: float,
        dt: float,
        per_gpu: bool = False,
        track_alloc: bool = False,
    ) -> TraceArrays:
        """Dense traces for ``[t0, t1)`` sampled every ``dt`` seconds."""
        if t1 <= t0 or dt <= 0:
            raise ValueError("need t1 > t0 and dt > 0")
        cfg = self.config
        times = np.arange(t0, t1, dt)
        n_t = len(times)
        n = cfg.n_nodes
        cells = n * n_t * (cfg.gpus_per_node if per_gpu else 1)
        if cells > MAX_CELLS:
            raise MemoryError(
                f"window would materialize {cells:.2e} cells; "
                "build smaller windows and stream them"
            )

        cpu_w = np.full((n, n_t), cfg.cpus_per_node * cfg.cpu_idle_w)
        gpu_w = np.full((n, n_t), cfg.gpus_per_node * cfg.gpu_idle_w)
        gpu_detail = (
            np.full((n, cfg.gpus_per_node, n_t), cfg.gpu_idle_w) if per_gpu else None
        )
        alloc_of = (
            np.full((n, n_t), -1, dtype=np.int64) if track_alloc else None
        )

        active = self.active_allocations(t0, t1)
        for i in range(active.n_rows):
            aid = int(active["allocation_id"][i])
            begin = float(active["begin_time"][i])
            end = float(active["end_time"][i])
            nodes = self.schedule.nodes_of(aid)
            i0 = int(np.searchsorted(times, begin, side="left"))
            i1 = int(np.searchsorted(times, end, side="left"))
            if len(nodes) == 0 or i1 <= i0:
                continue
            for chunk, c_w, g_w, g_detail in allocation_chunks(
                self.node_model, self.catalog,
                self.catalog.row_of_allocation(aid), nodes,
                self._noise_of(aid, len(nodes)), times, i0, i1, begin, end,
                per_gpu=per_gpu,
            ):
                cpu_w[nodes, chunk] = c_w
                gpu_w[nodes, chunk] = g_w
                if g_detail is not None:
                    gpu_detail[nodes, :, chunk] = g_detail
            if alloc_of is not None:
                alloc_of[nodes, i0:i1] = aid

        return TraceArrays(
            times=times,
            node_input_w=self.node_model.wall_power(cpu_w, gpu_w),
            node_cpu_w=cpu_w,
            node_gpu_w=gpu_w,
            gpu_power_w=gpu_detail,
            node_alloc=alloc_of,
        )
