"""Power-trace synthesis: from allocations + profiles to per-node power.

The builder turns a schedule and a time window into dense physical arrays
(node input power, per-node CPU/GPU component power, optional per-GPU
detail).  These are the "ground truth" the telemetry path then samples,
delays, and perturbs — keeping physics and measurement strictly separated,
as in the real system.

Memory note (hpc-parallel guides): arrays are preallocated once and every
job writes into slices in place; nothing is reallocated in the hot loop.
Long simulations should build day-sized windows and stream them into a
:class:`~repro.parallel.partition.PartitionedDataset` —
:meth:`ClusterTraceBuilder.build_partitioned` fans the windows out across
an :class:`~repro.parallel.executor.Executor` and appends the shards.

Two paint engines produce bit-identical :class:`TraceArrays`:

* ``engine="batch"`` (default) — allocations are pruned against a sorted
  begin-time interval index (:class:`AllocationIntervalIndex`), grouped
  by identical sample extent ``(i0, i1)`` and profile kind (in any
  window, most active allocations span the whole window and land in one
  group per kind), and each group is painted as one stacked
  ``(sum_k, slots, tlen)`` kernel: one
  :func:`~repro.workload.apps.profile_utilization_batch` call and one
  ``component_power`` call per group chunk instead of one interpreted
  iteration — rng reseed, profile rebuild, and ~25 small-ufunc
  dispatches — per allocation.  Per-allocation noise vectors are drawn
  once and cached (the ``SeedSequence([seed, 0x7A5E, aid])`` stream is
  keyed by allocation id, so caching cannot change values).
* ``engine="loop"`` — the original per-allocation loop, kept as the
  differential-testing oracle.

Bit-identity notes: a group stacks allocations along the node axis and
flows through the *same* ``node_model.component_power`` call as the
loop, so per-(node, time) arithmetic is literally the same ops on the
same operands; reductions only ever run over a node's 2 CPUs or 6 GPUs
(axis lengths below numpy's pairwise-summation block); two allocations
sharing a node never overlap in time, so writes touch disjoint cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SummitConfig
from repro.frame.table import Table
from repro.machine.components import ChipPopulation
from repro.machine.node import NodePowerModel
from repro.workload.apps import (
    profile_utilization,
    profile_utilization_batch,
)
from repro.workload.jobs import JobCatalog
from repro.workload.scheduler import ScheduleResult

#: Per-node run-to-run utilization noise (load imbalance, OS jitter).
NODE_NOISE_SIGMA = 0.02

#: Guard against accidentally materializing a year at 1 Hz.
MAX_CELLS = 100_000_000

#: (node x sample) cell budget per fused batch-kernel call: bounds the
#: transient ``(cells, slots, tlen)`` intermediates so one group chunk
#: stays memory-friendly (~50 MB peak through ``component_power``).
BATCH_CHUNK_CELLS = 400_000

_ENGINES = ("batch", "loop")


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

    def to_table(self, metrics: tuple[str, ...] = ("input", "cpu", "gpu")) -> Table:
        """Long-format table: one row per (node, time).

        Columns: ``node``, ``timestamp``, and ``input_power`` /
        ``cpu_power`` / ``gpu_power`` as requested.
        """
        n, t = self.node_input_w.shape
        cols: dict[str, np.ndarray] = {
            "node": np.repeat(np.arange(n, dtype=np.int64), t),
            "timestamp": np.tile(self.times, n),
        }
        src = {
            "input": ("input_power", self.node_input_w),
            "cpu": ("cpu_power", self.node_cpu_w),
            "gpu": ("gpu_power", self.node_gpu_w),
        }
        for m in metrics:
            name, arr = src[m]
            cols[name] = arr.reshape(-1)
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
        engine: str = "batch",
    ):
        if engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
        self.catalog = catalog
        self.schedule = schedule
        self.config: SummitConfig = catalog.config
        self.chips = chips if chips is not None else ChipPopulation(self.config, seed)
        self.node_model = NodePowerModel(self.config, self.chips)
        self.seed = seed
        self.engine = engine
        self._alloc_nodes = self._index_allocation_nodes()
        self._intervals = AllocationIntervalIndex(schedule.allocations)
        #: per-allocation noise vectors, drawn once (the stream is keyed
        #: by allocation id, so the cache cannot change any value)
        self._noise_cache: dict[int, np.ndarray] = {}

    def _index_allocation_nodes(self) -> dict[int, np.ndarray]:
        """allocation_id -> sorted node array, built in one grouped pass."""
        na = self.schedule.node_allocations
        if na.n_rows == 0:
            return {}
        order = np.argsort(na["allocation_id"], kind="stable")
        ids = na["allocation_id"][order]
        nodes = na["node"][order]
        bounds = np.flatnonzero(np.diff(ids)) + 1
        splits = np.split(nodes, bounds)
        uniq = ids[np.concatenate([[0], bounds])] if len(ids) else []
        return {int(a): np.sort(s) for a, s in zip(uniq, splits)}

    def _noise_of(self, aid: int, k: int) -> np.ndarray:
        """Per-node utilization noise for allocation ``aid``, shape (k, 1)."""
        noise = self._noise_cache.get(aid)
        if noise is None:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, 0x7A5E, aid])
            )
            noise = 1.0 + rng.normal(0.0, NODE_NOISE_SIGMA, size=(k, 1))
            self._noise_cache[aid] = noise
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
        engine: str | None = None,
    ) -> TraceArrays:
        """Dense traces for ``[t0, t1)`` sampled every ``dt`` seconds.

        ``engine`` overrides the builder default: ``"batch"`` (fused
        kernels over kind buckets) or ``"loop"`` (the original
        per-allocation oracle).  Both are bit-identical.
        """
        if t1 <= t0 or dt <= 0:
            raise ValueError("need t1 > t0 and dt > 0")
        engine = engine or self.engine
        if engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
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

        paint = self._paint_batch if engine == "batch" else self._paint_loop
        paint(times, t0, t1, cpu_w, gpu_w, gpu_detail, alloc_of)

        input_w = np.minimum(
            (cpu_w + gpu_w + cfg.node_other_w) / cfg.psu_efficiency,
            cfg.node_max_power_w,
        )
        return TraceArrays(
            times=times,
            node_input_w=input_w,
            node_cpu_w=cpu_w,
            node_gpu_w=gpu_w,
            gpu_power_w=gpu_detail,
            node_alloc=alloc_of,
        )

    # ---------------- loop engine (differential oracle) ----------------

    def _paint_loop(
        self,
        times: np.ndarray,
        t0: float,
        t1: float,
        cpu_w: np.ndarray,
        gpu_w: np.ndarray,
        gpu_detail: np.ndarray | None,
        alloc_of: np.ndarray | None,
    ) -> None:
        """One interpreted iteration per active allocation (the original)."""
        active = self.active_allocations(t0, t1)
        for i in range(active.n_rows):
            aid = int(active["allocation_id"][i])
            begin = float(active["begin_time"][i])
            end = float(active["end_time"][i])
            nodes = self._alloc_nodes.get(aid)
            if nodes is None or len(nodes) == 0:
                continue
            self._paint_one(
                aid, begin, end, nodes, times,
                cpu_w, gpu_w, gpu_detail, alloc_of,
            )

    def _paint_one(
        self,
        aid: int,
        begin: float,
        end: float,
        nodes: np.ndarray,
        times: np.ndarray,
        cpu_w: np.ndarray,
        gpu_w: np.ndarray,
        gpu_detail: np.ndarray | None,
        alloc_of: np.ndarray | None,
    ) -> None:
        """Paint one allocation as ``(k, slots, t)`` numpy calls."""
        cfg = self.config
        row = self.catalog.row_of_allocation(aid)
        profile = self.catalog.profile(row)

        i0 = int(np.searchsorted(times, begin, side="left"))
        i1 = int(np.searchsorted(times, end, side="left"))
        if i1 <= i0:
            return
        t_rel = times[i0:i1] - begin
        cpu_u, gpu_u = profile_utilization(profile, t_rel, end - begin)

        noise = self._noise_of(aid, len(nodes))

        # (n_job, n_slots, t) utilizations; unused GPU slots stay idle
        k_used = int(self.catalog.table["gpus_used"][row]) if (
            "gpus_used" in self.catalog.table
        ) else self.config.gpus_per_node
        cu = np.clip(cpu_u[None, :] * noise, 0.0, 1.0)
        gu = np.clip(gpu_u[None, :] * noise, 0.0, 1.0)
        cpu_util = np.broadcast_to(
            cu[:, None, :], (len(nodes), cfg.cpus_per_node, len(t_rel))
        )
        gpu_util = np.zeros((len(nodes), cfg.gpus_per_node, len(t_rel)))
        gpu_util[:, :k_used, :] = gu[:, None, :]

        c_w, g_w = self.node_model.component_power(nodes, cpu_util, gpu_util)
        cpu_w[nodes, i0:i1] = c_w.sum(axis=1)
        gpu_w[nodes, i0:i1] = g_w.sum(axis=1)
        if gpu_detail is not None:
            gpu_detail[nodes, :, i0:i1] = g_w
        if alloc_of is not None:
            alloc_of[nodes, i0:i1] = aid

    # ---------------- batch engine (fused kernels) ----------------

    def _paint_batch(
        self,
        times: np.ndarray,
        t0: float,
        t1: float,
        cpu_w: np.ndarray,
        gpu_w: np.ndarray,
        gpu_detail: np.ndarray | None,
        alloc_of: np.ndarray | None,
    ) -> None:
        """Group active allocations by (sample extent, profile kind) and
        paint each group as one stacked ``(sum_k, slots, tlen)`` kernel.

        Allocations in a group share ``times[i0:i1]``, so they stack
        along the node axis and reuse the loop engine's broadcasting
        layout — chip factors and noise stay ``(N, slots, 1)`` /
        ``(N, 1)`` views instead of per-cell gathers — while amortizing
        the per-allocation interpreter work across the whole group.
        """
        rows = self._intervals.active_rows(t0, t1)
        if len(rows) == 0:
            return
        al = self.schedule.allocations
        aids = al["allocation_id"][rows]
        begins = al["begin_time"][rows]
        ends = al["end_time"][rows]

        i0 = np.searchsorted(times, begins, side="left")
        i1 = np.searchsorted(times, ends, side="left")

        # node lists + cached noise (skip sample-less and node-less allocs,
        # exactly the allocations the loop engine `continue`s past)
        keep_idx: list[int] = []
        nodes_list: list[np.ndarray] = []
        noise_list: list[np.ndarray] = []
        alloc_nodes = self._alloc_nodes
        for j, a in enumerate(aids.tolist()):
            if i1[j] <= i0[j]:
                continue
            nl = alloc_nodes.get(a)
            if nl is None or len(nl) == 0:
                continue
            keep_idx.append(j)
            nodes_list.append(nl)
            noise_list.append(self._noise_of(a, len(nl)))
        if not keep_idx:
            return
        keep = np.asarray(keep_idx, dtype=np.intp)
        aids, begins, ends = aids[keep], begins[keep], ends[keep]
        i0, i1 = i0[keep], i1[keep]

        cat = self.catalog.table
        cat_rows = self.catalog.rows_of_allocations(aids)
        kind = cat["kind_code"][cat_rows]
        params = {
            name: cat[name][cat_rows]
            for name in (
                "cpu_base", "cpu_amp", "gpu_base", "gpu_amp",
                "period_s", "duty", "phase_s",
            )
        }
        k_used = (
            cat["gpus_used"][cat_rows]
            if "gpus_used" in cat
            else np.full(len(cat_rows), self.config.gpus_per_node)
        ).astype(np.int64)

        tlen = i1 - i0
        k_arr = np.array([len(nl) for nl in nodes_list], dtype=np.int64)
        for code in np.unique(kind):
            bucket = np.flatnonzero(kind == code)
            # longest extents first, so a chunk's padded rectangle wastes
            # little on its shorter members (paint order is free to vary:
            # writes from different allocations never collide)
            bucket = bucket[np.argsort(-tlen[bucket], kind="stable")]
            # chunk the bucket so one kernel call stays within the
            # transient-memory budget (padded cells included)
            start = 0
            while start < len(bucket):
                stop = start + 1
                t_max = int(tlen[bucket[start]])
                cells = int(k_arr[bucket[start]]) * t_max
                while (
                    stop < len(bucket)
                    and cells + int(k_arr[bucket[stop]]) * t_max
                    <= BATCH_CHUNK_CELLS
                    # start a fresh (shorter) rectangle once padding would
                    # exceed ~25% for the next member
                    and 4 * int(tlen[bucket[stop]]) >= 3 * t_max
                ):
                    cells += int(k_arr[bucket[stop]]) * t_max
                    stop += 1
                self._paint_group(
                    int(code), bucket[start:stop].tolist(), times,
                    begins, ends, i0, i1, params, k_used, aids,
                    nodes_list, noise_list,
                    cpu_w, gpu_w, gpu_detail, alloc_of,
                )
                start = stop

    def _paint_group(
        self,
        code: int,
        members: list[int],
        times: np.ndarray,
        begins: np.ndarray,
        ends: np.ndarray,
        i0: np.ndarray,
        i1: np.ndarray,
        params: dict[str, np.ndarray],
        k_used: np.ndarray,
        aids: np.ndarray,
        nodes_list: list[np.ndarray],
        noise_list: list[np.ndarray],
        cpu_w: np.ndarray,
        gpu_w: np.ndarray,
        gpu_detail: np.ndarray | None,
        alloc_of: np.ndarray | None,
    ) -> None:
        """Paint one same-kind chunk as a stacked padded-rectangle kernel.

        Members stack along the node axis over a shared local-time axis of
        ``tlen_max`` steps; each member's rectangle starts at its own
        ``i0``.  Shorter members compute harmless values past their extent
        (every formula is elementwise, so in-extent cells never depend on
        padded ones) and the scatter masks the padding out.  In-extent
        operands — gathered times, parameter columns, noise, chip factors
        — match the per-allocation painter exactly, so results are
        bit-identical.  Two allocations sharing a node never overlap in
        time, hence no (node, time) write collides.
        """
        cfg = self.config
        idx = np.asarray(members, dtype=np.intp)
        g = len(members)
        m_i0 = i0[idx]
        m_tlen = (i1 - i0)[idx]
        tlen_max = int(m_tlen.max())
        local = np.arange(tlen_max)
        # clamp padded gathers in-range; the mask discards those cells
        t_idx = np.minimum(m_i0[:, None] + local[None, :], len(times) - 1)
        b = begins[idx]
        t_rel = times[t_idx] - b[:, None]
        dur = (ends[idx] - b)[:, None]

        cpu_u, gpu_u = profile_utilization_batch(
            code,
            *(params[name][idx][:, None] for name in (
                "cpu_base", "cpu_amp", "gpu_base", "gpu_amp",
                "period_s", "duty", "phase_s",
            )),
            t_rel,
            dur,
        )
        # steady/ramp branches return per-allocation columns; normalize
        cpu_u = np.broadcast_to(cpu_u, (g, tlen_max))
        gpu_u = np.broadcast_to(gpu_u, (g, tlen_max))

        # stack members along the node axis
        k_g = np.array([len(nodes_list[m]) for m in members], dtype=np.int64)
        nodes_cat = np.concatenate([nodes_list[m] for m in members])
        noise_cat = np.concatenate([noise_list[m] for m in members])  # (N, 1)
        row_of_node = np.repeat(np.arange(g), k_g)

        cu = np.clip(cpu_u[row_of_node] * noise_cat, 0.0, 1.0)
        gu = np.clip(gpu_u[row_of_node] * noise_cat, 0.0, 1.0)
        n = len(nodes_cat)
        cpu_util = np.broadcast_to(
            cu[:, None, :], (n, cfg.cpus_per_node, tlen_max)
        )
        ku = k_used[idx][row_of_node]
        if int(ku.min()) == cfg.gpus_per_node:
            # every member drives all GPUs (the common case): a broadcast
            # view equals the loop's zeros-then-full-assign array
            gpu_util = np.broadcast_to(
                gu[:, None, :], (n, cfg.gpus_per_node, tlen_max)
            )
        else:
            slot = np.arange(cfg.gpus_per_node)
            gpu_util = np.where(
                slot[None, :, None] < ku[:, None, None], gu[:, None, :], 0.0
            )

        c_w, g_w = self.node_model.component_power(nodes_cat, cpu_util, gpu_util)
        c_sum = c_w.sum(axis=1)
        g_sum = g_w.sum(axis=1)

        if int(m_tlen.min()) == tlen_max and np.all(m_i0 == m_i0[0]):
            # single shared extent (the common full-window case): plain
            # row-indexed slice writes
            sl = slice(int(m_i0[0]), int(m_i0[0]) + tlen_max)
            cpu_w[nodes_cat, sl] = c_sum
            gpu_w[nodes_cat, sl] = g_sum
            if gpu_detail is not None:
                gpu_detail[nodes_cat, :, sl] = g_w
            if alloc_of is not None:
                alloc_of[nodes_cat, sl] = aids[idx][row_of_node][:, None]
            return

        valid = local[None, :] < m_tlen[row_of_node][:, None]  # (N, tlen_max)
        node2 = np.broadcast_to(nodes_cat[:, None], valid.shape)[valid]
        time2 = (m_i0[row_of_node][:, None] + local[None, :])[valid]
        cpu_w[node2, time2] = c_sum[valid]
        gpu_w[node2, time2] = g_sum[valid]
        if gpu_detail is not None:
            gpu_detail[node2, :, time2] = np.moveaxis(g_w, 1, 2)[valid]
        if alloc_of is not None:
            alloc_of[node2, time2] = np.broadcast_to(
                aids[idx][row_of_node][:, None], valid.shape
            )[valid]

    # ---------------- windowed fan-out ----------------

    def build_partitioned(
        self,
        root,
        t0: float,
        t1: float,
        window_s: float,
        dt: float,
        executor=None,
        metrics: tuple[str, ...] = ("input",),
        name: str = "traces",
    ):
        """Render ``[t0, t1)`` window by window and stream the shards into
        a :class:`~repro.parallel.partition.PartitionedDataset`.

        Windows fan out across ``executor`` (default: the thread backend —
        the paint kernels release the GIL inside numpy); shards append in
        time order so zone maps stay sorted.  Returns the dataset.
        """
        from repro.parallel.executor import Executor
        from repro.parallel.partition import PartitionedDataset

        if window_s <= 0:
            raise ValueError("need window_s > 0")
        executor = executor if executor is not None else Executor("threads")
        edges = np.arange(t0, t1, window_s)
        windows = [(float(a), float(min(a + window_s, t1))) for a in edges]
        tables = executor.starmap(
            _BuildWindowTask(self, dt, metrics), windows
        )
        ds = PartitionedDataset.create(root, name)
        for (w0, w1), tbl in zip(windows, tables):
            ds.append(tbl, w0, w1)
        return ds


class _BuildWindowTask:
    """Picklable window-build callable for Executor fan-out."""

    def __init__(
        self, builder: ClusterTraceBuilder, dt: float, metrics: tuple[str, ...]
    ):
        self.builder = builder
        self.dt = dt
        self.metrics = metrics

    def __call__(self, w0: float, w1: float) -> Table:
        return self.builder.build(w0, w1, self.dt).to_table(self.metrics)


def job_power_trace(
    builder: ClusterTraceBuilder,
    allocation_id: int,
    dt: float = 10.0,
) -> Table:
    """Per-job power time series (Dataset 3 analogue for one job).

    Columns: ``timestamp``, ``count_hostname``, ``sum_inp``, ``mean_inp``,
    ``max_inp`` — matching the artifact appendix's job-wise series.
    """
    al = builder.schedule.allocations
    sel = al["allocation_id"] == allocation_id
    if not sel.any():
        raise KeyError(f"allocation {allocation_id} never started")
    begin = float(al["begin_time"][sel][0])
    end = float(al["end_time"][sel][0])
    arrays = builder.build(begin, max(end, begin + dt), dt)
    nodes = builder._alloc_nodes[int(allocation_id)]
    p = arrays.node_input_w[nodes]
    return Table(
        {
            "timestamp": arrays.times,
            "count_hostname": np.full(arrays.n_times, len(nodes), dtype=np.int64),
            "sum_inp": p.sum(axis=0),
            "mean_inp": p.mean(axis=0),
            "max_inp": p.max(axis=0),
        }
    )
