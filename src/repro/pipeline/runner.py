"""Chunked, cached, instrumented execution of the twin + analysis.

The year-scale problem in the paper — 8.5 TB of 1 Hz telemetry — cannot be
materialized in one in-memory pass.  :class:`Pipeline` therefore runs every
dataset derivation as a DAG of *time-window shards*: the horizon is split
into ``chunk_seconds`` windows, each window's work is one task fanned out
through :class:`~repro.parallel.executor.Executor`, and per-stage counters
(wall time, rows, bytes, cache hits) land in a
:class:`~repro.pipeline.stats.PipelineStats` report.

Chunked results are **bit-identical** to the single-pass path (the per-job
and per-sample kernels are elementwise in time and shared with the direct
path; asserted by the equivalence test suite).  With a ``cache_dir``, every
chunk artifact is stored content-addressed
(:class:`~repro.pipeline.cache.ArtifactCache`), so a re-run with the same
spec skips the chunk computation entirely.
"""

from __future__ import annotations

import os
import time as _time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.frame.table import Table, concat
from repro.obs import trace
from repro.parallel.executor import Executor
from repro.parallel.graph import TaskGraph
from repro.pipeline.cache import ArtifactCache, cache_key
from repro.pipeline.stats import PipelineStats

__all__ = ["PipelineConfig", "Pipeline", "chunk_windows"]


@dataclass(frozen=True)
class PipelineConfig:
    """Execution knobs for one :class:`Pipeline`.

    ``chunk_seconds`` is the shard width (default one day, matching the
    paper's one-parquet-file-per-day layout); ``backend`` / ``max_workers``
    / ``mp_context`` select the :class:`~repro.parallel.executor.Executor`;
    ``cache_dir`` enables the on-disk artifact cache.
    """

    chunk_seconds: float = 86_400.0
    backend: str = "threads"
    max_workers: int | None = None
    mp_context: str | None = None
    cache_dir: str | os.PathLike | None = None

    def __post_init__(self):
        if self.chunk_seconds <= 0:
            raise ValueError(
                f"chunk_seconds must be positive, got {self.chunk_seconds}"
            )


def chunk_windows(
    horizon_s: float, chunk_s: float, origin: float = 0.0
) -> list[tuple[float, float]]:
    """Split ``[origin, origin + horizon_s)`` into ``chunk_s``-wide windows.

    The last window is clipped to the horizon; a non-positive horizon yields
    no windows.
    """
    if chunk_s <= 0:
        raise ValueError(f"chunk_s must be positive, got {chunk_s}")
    out: list[tuple[float, float]] = []
    t0 = origin
    end = origin + horizon_s
    while t0 < end:
        t1 = min(t0 + chunk_s, end)
        out.append((t0, t1))
        t0 = t1
    return out


# ---------------- picklable chunk tasks ----------------
# (module-level callable classes so the process backend can ship them)


class _Timed:
    """Adapt an ``item -> Table`` task to the stage-task contract.

    A stage task runs in a worker and returns ``(wall_s, table, steps)``:
    its own wall time, its result, and the ``(name, wall_s, rows_in,
    rows_out)`` of any sub-steps it timed (none here).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, item) -> tuple[float, Table, tuple]:
        t0 = _time.perf_counter()
        out = self.fn(item)
        return _time.perf_counter() - t0, out, ()


class _ClusterChunk:
    """Compute one time-window's cluster power slice as a 1-column table."""

    __slots__ = ("catalog", "schedule", "chips", "dt", "seed", "index")

    def __init__(self, twin, dt: float):
        from repro.workload.traces import AllocationIntervalIndex

        self.catalog = twin.catalog
        self.schedule = twin.schedule
        self.chips = twin.chips
        self.dt = dt
        self.seed = twin.spec.seed
        # built once and shipped with the task: each window then prunes
        # its allocation walk instead of scanning the whole schedule
        self.index = AllocationIntervalIndex(twin.schedule.allocations)

    def __call__(self, span: tuple[int, int]) -> Table:
        from repro.datasets.generate import cluster_power_window

        w0, w1 = span
        power = cluster_power_window(
            self.catalog, self.schedule, self.chips, w0, w1,
            dt=self.dt, seed=self.seed, index=self.index,
        )
        return Table({"power": power})


class _JobChunk:
    """Compute the job-series rows of one window's jobs."""

    __slots__ = ("catalog", "schedule", "chips", "dt", "components", "seed")

    def __init__(self, twin, dt: float, components: bool):
        self.catalog = twin.catalog
        self.schedule = twin.schedule
        self.chips = twin.chips
        self.dt = dt
        self.components = components
        self.seed = twin.spec.seed

    def __call__(self, rows: np.ndarray) -> Table:
        from repro.datasets.generate import job_power_series_direct

        return job_power_series_direct(
            self.catalog, self.schedule, self.chips,
            dt=self.dt, components=self.components, seed=self.seed,
            rows=rows, allow_empty=True,
        )


class _CoarsenChunk:
    """10 s-coarsen one telemetry sub-table."""

    __slots__ = ("values", "width", "by", "time", "drop_nan", "presorted")

    def __init__(self, values, width, by, time, drop_nan, presorted=None):
        self.values = list(values)
        self.width = width
        self.by = list(by)
        self.time = time
        self.drop_nan = drop_nan
        self.presorted = presorted

    def __call__(self, sub: Table) -> Table:
        from repro.core.coarsen import coarsen_telemetry

        return coarsen_telemetry(
            sub, self.values, width=self.width, by=self.by,
            time=self.time, drop_nan=self.drop_nan, presorted=self.presorted,
        )


class _AggregateChunk:
    """Collapse one coarsened sub-table into the cluster power series."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __call__(self, sub: Table) -> Table:
        from repro.core.aggregate import cluster_power_series

        return cluster_power_series(sub, value=self.value)


class _FusedChunk:
    """Read -> coarsen -> aggregate one time shard in a single task.

    The coarsened intermediate lives and dies inside the worker: nothing but
    the final (tiny) cluster-series slice crosses the executor boundary.
    Dataset reads push the stage's **projection** (the columns the coarsen
    actually consumes) and optional **time range** down into the shard
    reader, so an ``.rcs`` shard maps only those columns' pages.  Each
    sub-step is timed in the worker so the parent can keep per-stage
    accounting (``fused/read``, ``fused/coarsen``, ``fused/aggregate``);
    the return value follows the stage-task contract of :class:`_Timed`.
    """

    __slots__ = ("coarsen", "value", "dataset", "columns", "t_range")

    def __init__(self, coarsen: _CoarsenChunk, value: str, dataset=None,
                 columns=None, t_range=None):
        self.coarsen = coarsen
        self.value = value
        self.dataset = dataset
        self.columns = list(columns) if columns is not None else None
        self.t_range = t_range

    def __call__(self, item) -> tuple[float, Table, tuple]:
        from repro.core.aggregate import cluster_power_series

        steps = []
        t0 = _time.perf_counter()
        if self.dataset is not None:  # item is a shard index
            if self.t_range is not None:
                sub = self.dataset.read_time_range(
                    item, self.t_range[0], self.t_range[1],
                    columns=self.columns, time=self.coarsen.time,
                )
            else:
                sub = self.dataset.read(item, columns=self.columns)
            t1 = _time.perf_counter()
            steps.append(("read", t1 - t0, 0, sub.n_rows))
        else:
            sub = item
            t1 = t0
        coarse = self.coarsen(sub)
        t2 = _time.perf_counter()
        steps.append(("coarsen", t2 - t1, sub.n_rows, coarse.n_rows))
        series = cluster_power_series(coarse, value=self.value)
        t3 = _time.perf_counter()
        steps.append(("aggregate", t3 - t2, coarse.n_rows, series.n_rows))
        return t3 - t0, series, tuple(steps)


class Pipeline:
    """Chunked out-of-core execution of twin dataset derivations.

    Construct from a :class:`~repro.datasets.generate.SimulationSpec` (the
    twin is simulated lazily, and only when a chunk actually needs it) or
    from an existing :class:`~repro.datasets.generate.TwinData`.

    Every public method is bit-identical to its single-pass counterpart:

    ========================  =======================================
    :meth:`cluster_power`     ``TwinData.cluster_power``
    :meth:`job_series`        ``TwinData.job_series``
    :meth:`coarsen`           :func:`repro.core.coarsen.coarsen_telemetry`
    :meth:`cluster_series`    :func:`repro.core.aggregate.cluster_power_series`
    :meth:`export`            :func:`repro.datasets.store.export_datasets`
    ========================  =======================================
    """

    def __init__(self, source, config: PipelineConfig | None = None):
        from repro.datasets.generate import SimulationSpec, TwinData

        self.config = config or PipelineConfig()
        self.executor = Executor(
            backend=self.config.backend,
            max_workers=self.config.max_workers,
            mp_context=self.config.mp_context,
        )
        self.cache = (
            ArtifactCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self.stats = PipelineStats()
        if isinstance(source, SimulationSpec):
            self.spec = source
            self._twin: TwinData | None = None
        elif isinstance(source, TwinData):
            self._twin = source
            self.spec = source.spec
        else:
            raise TypeError(
                f"Pipeline needs a SimulationSpec or TwinData, got "
                f"{type(source).__name__}"
            )

    @property
    def twin(self):
        """The simulated deployment (built on first use, stage ``simulate``)."""
        if self._twin is None:
            from repro.datasets.generate import simulate_twin

            t0 = _time.perf_counter()
            with trace.span("pipeline.simulate"):
                self._twin = simulate_twin(self.spec)
            self.stats.record(
                "simulate",
                wall_s=_time.perf_counter() - t0,
                rows_out=self._twin.schedule.allocations.n_rows,
            )
        return self._twin

    # ---------------- generic chunk-stage driver ----------------

    def _run_stage(
        self,
        stage: str,
        items: Sequence,
        task_factory: Callable[[], Callable],
        keys: Sequence[str] | None = None,
        rows_in: int = 0,
    ) -> list[Table]:
        """Run one stage: cache lookups, fan out misses, store, account.

        ``items`` are the per-chunk task inputs; ``keys`` (when caching) are
        the content-addressed keys, parallel to ``items``.  Results come
        back in item order regardless of hit/miss interleaving.
        ``task_factory`` builds the stage task (see :class:`_Timed` for its
        contract) and is only called when some chunk missed the cache.
        Sub-steps the task timed are recorded as ``<stage>/<step>`` rows,
        which the report nests under the stage.
        """
        with trace.span("pipeline.stage", stage=stage,
                        items=len(items)) as sp:
            results: list[Table | None] = [None] * len(items)
            hits = 0
            if self.cache is not None and keys is not None:
                t0 = _time.perf_counter()
                for idx, key in enumerate(keys):
                    got = self.cache.get(key)
                    if got is not None:
                        results[idx] = got
                        hits += 1
                lookup_s = _time.perf_counter() - t0
            else:
                lookup_s = 0.0

            miss_idx = [i for i, r in enumerate(results) if r is None]
            wall = lookup_s
            bytes_out = 0
            sub_steps: dict[str, list] = {}  # step -> [wall_s, rows in, out]
            if miss_idx:
                outs = self.executor.map(
                    task_factory(), [items[i] for i in miss_idx], label=stage
                )
                for i, (elapsed, table, steps) in zip(miss_idx, outs):
                    results[i] = table
                    wall += elapsed
                    for name, *counts in steps:
                        acc = sub_steps.setdefault(name, [0.0, 0, 0])
                        for j, count in enumerate(counts):
                            acc[j] += count
                    if self.cache is not None and keys is not None:
                        bytes_out += self.cache.put(keys[i], table)

            cached_run = self.cache is not None and keys is not None
            sp.set(cache_hits=hits, misses=len(miss_idx))
            tables: list[Table] = results  # type: ignore[assignment]
            self.stats.record(
                stage,
                wall_s=wall,
                calls=len(miss_idx),
                rows_in=rows_in,
                rows_out=sum(t.n_rows for t in tables),
                bytes_out=bytes_out,
                cache_hits=hits,
                cache_misses=len(miss_idx) if cached_run else 0,
            )
            for name, (step_s, step_in, step_out) in sub_steps.items():
                self.stats.record(
                    f"{stage}/{name}", wall_s=step_s, calls=len(miss_idx),
                    rows_in=step_in, rows_out=step_out,
                )
            return tables

    def _token_keys(
        self, cache_token: str | None, chunk_ids: Sequence[int], **fields
    ) -> list[str] | None:
        """Artifact keys of a telemetry stage's chunks, or ``None`` when it
        runs uncached: raw table content is never hashed, so caching needs
        the caller's ``cache_token`` naming the telemetry's provenance."""
        if self.cache is None or cache_token is None:
            return None
        return [cache_key(cache_token, window=k, **fields) for k in chunk_ids]

    def _split_by_chunk(
        self, table: Table, time: str, width: float | None = None
    ) -> tuple[list[int], list[Table]]:
        """Split ``table`` into its non-empty time chunks: (ids, sub-tables).

        With ``width`` the chunk is rounded down to a multiple of it, so
        every coarsen window falls wholly inside one chunk.
        """
        chunk = self.config.chunk_seconds
        if width is not None:
            chunk = max(width, np.floor(chunk / width) * width)
        win = np.floor(
            np.asarray(table[time], dtype=np.float64) / chunk
        ).astype(np.int64)
        ids = np.unique(win)
        return [int(k) for k in ids], [table.filter(win == k) for k in ids]

    def _spans(self, n_samples: int, dt: float) -> list[tuple[int, int]]:
        """Per-window global sample-index spans covering ``[0, n_samples)``."""
        per = max(1, int(round(self.config.chunk_seconds / dt)))
        return [
            (i, min(i + per, n_samples)) for i in range(0, n_samples, per)
        ]

    # ---------------- dataset stages ----------------

    def cluster_power(self, dt: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
        """Chunked Dataset 1 input: (times, total cluster input power W)."""
        times = np.arange(0.0, self.spec.horizon_s, dt)
        spans = self._spans(len(times), dt)
        keys = None
        if self.cache is not None:
            keys = [
                cache_key(self.spec, stage="cluster_power", dt=dt, span=list(s))
                for s in spans
            ]
        tables = self._run_stage(
            "cluster_power",
            spans,
            lambda: _Timed(_ClusterChunk(self.twin, dt)),
            keys,
            rows_in=len(times),
        )
        if not tables:
            return times, np.empty(0)
        power = np.concatenate([t["power"] for t in tables])
        return times, power

    def job_series(self, dt: float = 10.0, components: bool = False) -> Table:
        """Chunked Dataset 3 (+4 with ``components``): one shard per
        start-time window, reassembled into single-pass row order."""
        twin = self.twin
        al = twin.schedule.allocations
        begin = al["begin_time"]
        chunk_s = self.config.chunk_seconds
        n_win = max(1, len(chunk_windows(self.spec.horizon_s, chunk_s)))
        win = np.clip(
            np.floor(begin / chunk_s).astype(np.int64), 0, n_win - 1
        )
        items: list[np.ndarray] = []
        keys: list[str] | None = [] if self.cache is not None else None
        for k in range(n_win):
            rows = np.flatnonzero(win == k)
            if len(rows) == 0:
                continue
            items.append(rows)
            if keys is not None:
                keys.append(cache_key(
                    self.spec, stage="job_series", dt=dt,
                    components=components, chunk_s=chunk_s, window=k,
                ))
        tables = self._run_stage(
            "job_series",
            items,
            lambda: _Timed(_JobChunk(twin, dt, components)),
            keys,
            rows_in=al.n_rows,
        )
        tables = [t for t in tables if t.n_rows]
        if not tables:
            raise ValueError("no job produced any samples (horizon too short?)")
        combined = concat(tables)
        # restore the single-pass row order (allocation-row major): samples
        # within a job block are already time-ordered inside their shard
        aids = al["allocation_id"]
        aid_order = np.argsort(aids, kind="stable")
        sample_rows = aid_order[
            np.searchsorted(aids[aid_order], combined["allocation_id"])
        ]
        return combined.take(np.argsort(sample_rows, kind="stable"))

    def coarsen(
        self,
        telemetry: Table,
        values: Sequence[str],
        width: float | None = None,
        by: Sequence[str] = ("node",),
        time: str = "timestamp",
        drop_nan: bool = True,
        presorted: bool | None = None,
        cache_token: str | None = None,
    ) -> Table:
        """Chunked 10 s coarsening (Dataset A -> Dataset 0).

        Chunk edges are aligned to multiples of ``width`` so every coarsen
        window falls wholly inside one chunk; the concatenated result is
        re-sorted to the single-pass ``group_by`` order.  ``presorted``
        forwards to the windowed group-by kernel (chunking by time window
        preserves per-group time order, so a sorted input keeps its fast
        path in every chunk).  Caching requires a ``cache_token`` naming the
        telemetry's provenance (raw table content is never hashed).
        """
        from repro.config import SUMMIT

        width = SUMMIT.coarsen_window_s if width is None else width
        task = _CoarsenChunk(values, width, by, time, drop_nan, presorted)
        chunk_ids, items = self._split_by_chunk(telemetry, time, width)
        keys = self._token_keys(
            cache_token, chunk_ids, stage="coarsen", values=list(values),
            width=width, by=list(by), time=time, drop_nan=drop_nan,
        )
        tables = self._run_stage(
            "coarsen", items, lambda: _Timed(task), keys,
            rows_in=telemetry.n_rows,
        )
        tables = [x for x in tables if x.n_rows]
        if not tables:
            return task(telemetry)
        return concat(tables).sort(list(by) + ["timestamp"])

    def cluster_series(
        self,
        coarse: Table,
        value: str = "input_power",
        cache_token: str | None = None,
    ) -> Table:
        """Chunked Dataset 1 collapse of a coarsened table."""
        chunk_ids, items = self._split_by_chunk(coarse, "timestamp")
        keys = self._token_keys(
            cache_token, chunk_ids, stage="aggregate", value=value
        )
        tables = self._run_stage(
            "aggregate", items, lambda: _Timed(_AggregateChunk(value)), keys,
            rows_in=coarse.n_rows,
        )
        tables = [x for x in tables if x.n_rows]
        if not tables:
            return _AggregateChunk(value)(coarse)
        return concat(tables).sort("timestamp")

    def telemetry_series(
        self,
        telemetry,
        values: Sequence[str] = ("input_power",),
        value: str = "input_power",
        width: float | None = None,
        by: Sequence[str] = ("node",),
        time: str = "timestamp",
        drop_nan: bool = True,
        presorted: bool | None = None,
        cache_token: str | None = None,
        t_begin: float | None = None,
        t_end: float | None = None,
    ) -> Table:
        """Telemetry -> cluster power series (Dataset A -> Dataset 1).

        Each time shard runs read -> coarsen -> aggregate as **one**
        executor task (:class:`_FusedChunk`): the per-node coarsened
        intermediate — typically 10x the size of the final series — never
        crosses the executor boundary and is never written to the artifact
        cache; only the final per-shard series slice is cached (stage
        ``fused``).  The result is bit-identical to the single-pass
        :func:`~repro.core.aggregate.cluster_power_series` of
        :func:`~repro.core.coarsen.coarsen_telemetry`.

        ``telemetry`` is a :class:`~repro.frame.table.Table` or a
        :class:`~repro.parallel.partition.PartitionedDataset` whose shard
        edges are aligned to ``width`` multiples (the writer's layout);
        dataset shards are read *inside* the worker, so the fan-out payload
        is one integer per task.  The stage's **projection** (``by`` +
        ``time`` + ``values``) is pushed into those reads — an ``.rcs``
        dataset maps only the consumed columns — and a ``t_begin``/``t_end``
        **predicate** prunes whole shards via manifest zone maps before any
        byte is read, then row-slices the survivors (both folded into the
        cache key; results equal filtering the full read bit-for-bit).
        """
        from repro.config import SUMMIT
        from repro.core.aggregate import cluster_power_series
        from repro.parallel.partition import PartitionedDataset

        width = SUMMIT.coarsen_window_s if width is None else width
        is_dataset = isinstance(telemetry, PartitionedDataset)
        projection = list(dict.fromkeys(list(by) + [time] + list(values)))
        t_range = None
        if t_begin is not None or t_end is not None:
            t_range = (
                -np.inf if t_begin is None else float(t_begin),
                np.inf if t_end is None else float(t_end),
            )

        task = _FusedChunk(
            _CoarsenChunk(values, width, by, time, drop_nan, presorted),
            value,
            dataset=telemetry if is_dataset else None,
            columns=projection if is_dataset else None,
            t_range=t_range if is_dataset else None,
        )
        if is_dataset:
            if t_range is not None:
                items: list = telemetry.select_time(
                    t_range[0], t_range[1], time=time
                )
            else:
                items = list(range(telemetry.n_partitions))
            chunk_ids = items
            rows_in = sum(telemetry.partitions[i].n_rows for i in items)
        else:
            work = telemetry.select(projection)
            if t_range is not None:
                t = np.asarray(work[time], dtype=np.float64)
                work = work.filter((t >= t_range[0]) & (t < t_range[1]))
            chunk_ids, items = self._split_by_chunk(work, time, width)
            rows_in = work.n_rows

        keys = self._token_keys(
            cache_token, chunk_ids, stage="fused", values=list(values),
            width=width, by=list(by), time=time, drop_nan=drop_nan,
            value=value, projection=projection,
            t_range=None if t_range is None else [
                repr(float(t_range[0])), repr(float(t_range[1]))
            ],
        )
        tables = self._run_stage(
            "fused", items, lambda: task, keys, rows_in=rows_in
        )
        tables = [x for x in tables if x.n_rows]
        if not tables:
            # nothing in range: run the kernels over a zero-row slice so
            # the result still carries the series' exact schema
            empty = (
                telemetry.read(0, projection) if is_dataset else work
            )[:0]
            return cluster_power_series(task.coarsen(empty), value=value)
        return concat(tables).sort("timestamp")

    # ---------------- live streaming route ----------------

    def stream_graph(
        self,
        telemetry: Table,
        values: Sequence[str] = ("input_power",),
        skew: bool = True,
        seed: int | None = None,
        lateness_s: float = 8.0,
        batch_interval_s: float = 5.0,
        queue_capacity: int = 8,
        loss_events: Sequence = (),
        edge_threshold_w: float | None = None,
        spectral: bool = True,
    ):
        """The standard live-analysis graph over a telemetry replay.

        Wires ``repro.stream`` into the same analysis chain the batch
        pipeline runs: replay source -> online coarsen -> running cluster
        aggregate -> {edge detector, rolling PUE, online spectral}.  With
        ``skew=False`` (and no loss events) the streamed results are
        bit-identical to :meth:`coarsen` / :meth:`cluster_series` on the
        sorted telemetry; the default ``lateness_s`` of 8 s covers the
        fan-in path's maximum skew so nothing is late under ``skew=True``
        either.  Returns the un-run :class:`~repro.stream.runtime.StreamGraph`.
        """
        from repro.config import SUMMIT
        from repro.stream import (
            OnlineSpectral,
            StreamGraph,
            StreamingClusterAggregate,
            StreamingCoarsen,
            StreamingEdgeDetector,
            StreamingPUE,
            TelemetryReplaySource,
        )

        source = TelemetryReplaySource(
            telemetry,
            batch_interval_s=batch_interval_s,
            skew=skew,
            seed=self.spec.seed if seed is None else seed,
            loss_events=loss_events,
        )
        graph = StreamGraph(source, queue_capacity=queue_capacity)
        graph.add(
            StreamingCoarsen(values, lateness_s=lateness_s), collect=True
        )
        graph.add(
            StreamingClusterAggregate(value=values[0]),
            after="coarsen",
            collect=True,
        )
        if edge_threshold_w is None:
            edge_threshold_w = (
                SUMMIT.edge_threshold_w_per_node * self.spec.n_nodes
            )
        graph.add(
            StreamingEdgeDetector(edge_threshold_w, value="sum_inp"),
            after="aggregate",
        )
        graph.add(StreamingPUE(it="sum_inp"), after="aggregate")
        if spectral:
            graph.add(
                OnlineSpectral(dt=SUMMIT.coarsen_window_s, value="sum_inp"),
                after="aggregate",
            )
        return graph

    # ---------------- end-to-end export DAG ----------------

    def export(self, root, day_s: float = 86_400.0) -> dict[str, object]:
        """Run the export DAG: logs + chunked job series + cluster power.

        Equivalent to :func:`repro.datasets.store.export_datasets` (same
        files, same bytes) but the two series derivations run as chunked,
        cached stages and the three write tasks hang off them as a
        :class:`~repro.parallel.graph.TaskGraph`.
        """
        from repro.datasets.store import (
            dataset_inventory,
            write_log_csvs,
            write_partitioned_series,
        )

        twin = self.twin

        graph = TaskGraph()
        graph.add("logs", lambda: write_log_csvs(twin, root))
        graph.add("job_series", lambda: self.job_series())
        graph.add("cluster_power", lambda: self.cluster_power())
        graph.add(
            "write_job_series",
            lambda series: write_partitioned_series(
                series, root, "job_series", day_s,
                t_end=None,
            ),
            deps=["job_series"],
        )
        graph.add(
            "write_cluster_power",
            lambda tp: write_partitioned_series(
                Table({"timestamp": tp[0], "sum_inp": tp[1]}),
                root, "cluster_power", day_s,
                t_end=self.spec.horizon_s,
            ),
            deps=["cluster_power"],
        )
        t0 = _time.perf_counter()
        with trace.span("pipeline.export"):
            graph.run(Executor(backend="serial"))
        self.stats.record("write", wall_s=_time.perf_counter() - t0, calls=3)
        return dataset_inventory(twin, root)
