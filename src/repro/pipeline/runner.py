"""Chunked, cached, instrumented execution of the twin + analysis.

The year-scale problem in the paper — 8.5 TB of 1 Hz telemetry — cannot be
materialized in one in-memory pass.  :class:`Pipeline` therefore runs every
dataset derivation as a stage of independent shard tasks fanned out
through :class:`~repro.parallel.executor.Executor`: the twin stages split
the horizon into ``chunk_seconds`` windows on processes (their Python
loops hold the GIL), and the archive stage runs one task per surviving
shard of a :class:`~repro.plan.QueryPlan` on threads (numpy and zlib
release it).  Per-stage counters (wall time, rows, bytes, cache hits)
land in a :class:`~repro.pipeline.stats.PipelineStats` report.

Chunked results are **bit-identical** to the single-pass path (the per-job
and per-sample kernels are elementwise in time and shared with the direct
path; asserted by the equivalence test suite).  With a ``cache_dir``, every
twin-stage chunk artifact is stored content-addressed
(:class:`~repro.pipeline.cache.ArtifactCache`), so a re-run with the same
spec skips the chunk computation entirely.  The archive stage is never
cached: its input is already on disk.
"""

from __future__ import annotations

import math
import os
import time as _time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import SUMMIT
from repro.datasets.generate import (
    SimulationSpec,
    TwinData,
    cluster_power_window,
    job_power_series_direct,
    simulate_twin,
)
from repro.datasets.store import (
    dataset_inventory,
    write_log_csvs,
    write_partitioned_series,
)
from repro.frame.table import Table, concat
from repro.obs import trace
from repro.parallel.executor import Executor
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.stats import PipelineStats
from repro.plan import Query, cache_key, plan_query
from repro.stream import (
    OnlineSpectral,
    StreamGraph,
    StreamingClusterAggregate,
    StreamingCoarsen,
    StreamingEdgeDetector,
    StreamingPUE,
    TelemetryReplaySource,
)
from repro.workload.traces import AllocationIntervalIndex

__all__ = ["PipelineConfig", "Pipeline", "chunk_windows"]


@dataclass(frozen=True)
class PipelineConfig:
    """Execution knobs for one :class:`Pipeline`.

    ``chunk_seconds`` is the shard width (default one day, matching the
    paper's one-parquet-file-per-day layout); ``max_workers`` sizes every
    stage's pool (1 runs each stage inline); ``cache_dir`` enables the
    on-disk artifact cache.  Each stage picks its own backend.
    """

    chunk_seconds: float = 86_400.0
    max_workers: int | None = None
    cache_dir: str | os.PathLike | None = None

    def __post_init__(self):
        if not 0.0 < self.chunk_seconds < math.inf:
            raise ValueError(
                "chunk_seconds must be finite and > 0, got "
                f"{self.chunk_seconds!r}"
            )


def chunk_windows(
    horizon_s: float, chunk_s: float
) -> list[tuple[float, float]]:
    """Split ``[0, horizon_s)`` into ``chunk_s``-wide windows.

    The last window is clipped to the horizon; a non-positive horizon yields
    no windows.
    """
    if chunk_s <= 0:
        raise ValueError(f"chunk_s must be positive, got {chunk_s}")
    out: list[tuple[float, float]] = []
    t0 = 0.0
    while t0 < horizon_s:
        t1 = min(t0 + chunk_s, horizon_s)
        out.append((t0, t1))
        t0 = t1
    return out


# ---------------- picklable chunk tasks ----------------
# (module-level callable classes so the process pool can ship them)


class _Timed:
    """Adapt an ``item -> Table`` task to the stage-task contract: a stage
    task runs in a worker and returns ``(wall_s, table)``, its own wall
    time and its result."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, item) -> tuple[float, Table]:
        t0 = _time.perf_counter()
        out = self.fn(item)
        return _time.perf_counter() - t0, out


class _ClusterChunk:
    """Compute one time-window's cluster power slice as a 1-column table."""

    __slots__ = ("catalog", "schedule", "chips", "dt", "seed", "index")

    def __init__(self, twin, dt: float):
        self.catalog = twin.catalog
        self.schedule = twin.schedule
        self.chips = twin.chips
        self.dt = dt
        self.seed = twin.spec.seed
        # built once and shipped with the task: each window then prunes
        # its allocation walk instead of scanning the whole schedule
        self.index = AllocationIntervalIndex(twin.schedule.allocations)

    def __call__(self, span: tuple[int, int]) -> Table:
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
        return job_power_series_direct(
            self.catalog, self.schedule, self.chips,
            dt=self.dt, components=self.components, seed=self.seed,
            rows=rows, allow_empty=True,
        )


class Pipeline:
    """Chunked out-of-core execution of twin dataset derivations.

    Construct from a :class:`~repro.datasets.generate.SimulationSpec` (the
    twin is simulated lazily, and only when a chunk actually needs it) or
    from an existing :class:`~repro.datasets.generate.TwinData`.

    Every public method is bit-identical to its single-pass counterpart:

    ========================  =======================================
    :meth:`cluster_power`     ``TwinData.cluster_power``
    :meth:`job_series`        ``TwinData.job_series``
    :meth:`telemetry_series`  ``plan_query(query, dataset).execute()``
    ========================  =======================================
    """

    def __init__(self, source, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self._executors = {
            backend: Executor(backend, self.config.max_workers)
            for backend in ("threads", "processes")
        }
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
        backend: str,
        keys: Sequence[str] | None = None,
        rows_in: int = 0,
    ) -> list[Table]:
        """Run one stage: cache lookups, fan out misses, store, account.

        ``items`` are the per-chunk task inputs, mapped on the ``backend``
        pool; ``keys`` (when caching) are the content-addressed keys,
        parallel to ``items``.  Results come back in item order regardless
        of hit/miss interleaving.  ``task_factory`` builds the stage task
        (see :class:`_Timed` for its contract) and is only called when some
        chunk missed the cache.
        """
        with trace.span("pipeline.stage", stage=stage,
                        items=len(items)) as sp:
            t0 = _time.perf_counter()
            results: list[Table | None] = [None] * len(items)
            hits = 0
            if self.cache is not None and keys is not None:
                for idx, key in enumerate(keys):
                    got = self.cache.get(key)
                    if got is not None:
                        results[idx] = got
                        hits += 1

            miss_idx = [i for i, r in enumerate(results) if r is None]
            task_s = factory_s = 0.0
            bytes_out = 0
            if miss_idx:
                # building the task may simulate the twin: that time is
                # the ``simulate`` stage's, not this one's
                t1 = _time.perf_counter()
                task = task_factory()
                factory_s = _time.perf_counter() - t1
                outs = self._executors[backend].map(
                    task, [items[i] for i in miss_idx], label=stage
                )
                for i, (elapsed, table) in zip(miss_idx, outs):
                    results[i] = table
                    task_s += elapsed
                    if self.cache is not None and keys is not None:
                        bytes_out += self.cache.put(keys[i], table)

            cached_run = self.cache is not None and keys is not None
            sp.set(cache_hits=hits, misses=len(miss_idx))
            tables: list[Table] = results  # type: ignore[assignment]
            self.stats.record(
                stage,
                wall_s=_time.perf_counter() - t0 - factory_s,
                task_s=task_s,
                calls=len(miss_idx),
                rows_in=rows_in,
                rows_out=sum(t.n_rows for t in tables),
                bytes_out=bytes_out,
                cache_hits=hits,
                cache_misses=len(miss_idx) if cached_run else 0,
            )
            return tables

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
            "processes",
            keys,
            rows_in=len(times),
        )
        if not tables:
            return times, np.empty(0)
        power = np.concatenate([t["power"] for t in tables])
        return times, power

    def job_series(self, components: bool = False) -> Table:
        """Chunked Dataset 3 (+4 with ``components``) at the coarsen
        window: one shard per start-time window, reassembled into
        single-pass row order."""
        dt = SUMMIT.coarsen_window_s
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
            "processes",
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

    def telemetry_series(self, dataset, query=None) -> Table:
        """Archived telemetry -> the answer to ``query`` (default: the
        cluster power series, Dataset A -> Dataset 1).

        Builds the :class:`~repro.plan.QueryPlan` of ``query`` (a
        :class:`~repro.plan.Query`; ``None`` is ``Query()``) over
        ``dataset`` — the one place that sequences prune -> projected read
        -> node filter -> coarsen -> aggregate — and runs its per-shard
        tasks as stage ``fused`` on this pipeline's thread pool, so the
        per-node coarsened intermediate (typically 10x the final series)
        never crosses the executor boundary; the query service executes the
        same plan object behind its caches.  Planning raises
        :class:`~repro.plan.QueryError` for a query the archive
        cannot answer, including a ``width`` that does not divide the shard
        edges.
        """
        plan = plan_query(query or Query(), dataset)
        tables = self._run_stage(
            "fused", plan.tasks(), lambda: _Timed(plan.run_task), "threads",
            rows_in=plan.rows_in,
        )
        return plan.finalize(tables)

    # ---------------- live streaming route ----------------

    def stream_graph(
        self,
        telemetry: Table,
        skew: bool = True,
        lateness_s: float = 8.0,
        batch_interval_s: float = 5.0,
        loss_events: Sequence = (),
        edge_threshold_w: float | None = None,
        spectral: bool = True,
    ):
        """The standard live-analysis graph over a telemetry replay.

        Wires ``repro.stream`` into the same analysis chain the batch
        pipeline runs: replay source -> online coarsen -> running cluster
        aggregate -> {edge detector, rolling PUE, online spectral}, over
        ``input_power`` and replayed with the spec's seed.  With
        ``skew=False`` (and no loss events) the streamed results are
        bit-identical to the single-pass kernels
        (:func:`~repro.core.coarsen.coarsen_telemetry`,
        :func:`~repro.core.aggregate.cluster_power_series`) on the sorted
        telemetry; the default ``lateness_s`` of 8 s covers the
        fan-in path's maximum skew so nothing is late under ``skew=True``
        either.  Returns the un-run :class:`~repro.stream.runtime.StreamGraph`.
        """
        source = TelemetryReplaySource(
            telemetry,
            batch_interval_s=batch_interval_s,
            skew=skew,
            seed=self.spec.seed,
            loss_events=loss_events,
        )
        graph = StreamGraph(source)
        graph.add(
            StreamingCoarsen(["input_power"], lateness_s=lateness_s),
            collect=True,
        )
        graph.add(
            StreamingClusterAggregate(value="input_power"),
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

    # ---------------- end-to-end export ----------------

    def export(self, root) -> dict[str, object]:
        """Write the twin's logs (Datasets C, D, E as CSV) and its job
        and cluster power series (Datasets 3 and 1, partitioned by day) to
        ``root``; return :func:`~repro.datasets.store.dataset_inventory`.

        The series run as chunked, cached stages; the files are
        byte-identical to writing ``TwinData``'s single-pass series.
        """
        twin = self.twin
        t0 = _time.perf_counter()
        with trace.span("pipeline.export"):
            write_log_csvs(twin, root)
            series = self.job_series()
            t, p = self.cluster_power()
            write_partitioned_series(series, root, "job_series")
            write_partitioned_series(
                Table({"timestamp": t, "sum_inp": p}),
                root, "cluster_power", t_end=self.spec.horizon_s,
            )
        self.stats.record("write", wall_s=_time.perf_counter() - t0, calls=3)
        return dataset_inventory(twin, root)
