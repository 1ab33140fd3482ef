"""Names, units, bounds and predicted interactions of every ledger metric.

This is the single source the runner, the comparator, the tests and
``BENCHMARK.json`` agree on.  The driver's contract makes every run print
*every* end-to-end metric, so the end-to-end vocabulary is the same on all
four workloads: each block has two timed parts, and ``part1_per_s`` /
``part2_per_s`` are that workload's two rates (:data:`WORKLOADS` says what
they count; ``alias`` is the name the issue and the README use for the
pair).  Per-layer metrics that a workload does not exercise read 0.
"""

from __future__ import annotations

from dataclasses import dataclass

NAME_CHARS = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"

#: how long one contract run measures (``run_seconds`` in BENCHMARK.json)
RUN_SECONDS = 24


@dataclass(frozen=True)
class Workload:
    why: str
    #: what ``part1_per_s`` / ``part2_per_s`` are on this workload
    part1: str
    part2: str


WORKLOADS: dict[str, Workload] = {
    "archive_cycle": Workload(
        why="only workload that writes: part1 = rows/s through "
            "write_partitioned_series+compact, part2 = rows/s through "
            "telemetry_series+to_table; codec trades between the two show",
        part1="ingest_rows_per_s",
        part2="scan_rows_per_s",
    ),
    "serve_mix": Workload(
        why="child-process server: part1 = distinct cold cluster scans/s "
            "on 1 connection (both caches bypassed), part2 = dashboard "
            "polls/s on 2 connections (result-cache hits + NDJSON wire)",
        part1="scan_qps",
        part2="dash_qps",
    ),
    "stream_replay": Workload(
        why="same kernels in ~360-row batches: part1 = rows/s of a "
            "skew-free replay, part2 = rows/s of a skewed one; storage "
            "and serve changes must read no change here",
        part1="replay_rows_per_s",
        part2="skewed_rows_per_s",
    ),
    "cosim_backlog": Workload(
        why="pure-Python event loop under a deep pending queue: part1 = "
            "jobs/s of Scheduler.run, part2 = painted node x time cells/s; "
            "no storage, no I/O, must not move with the other three",
        part1="sched_jobs_per_s",
        part2="paint_cells_per_s",
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    doc: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "input generation + archive build + server start + warm-up "
             "block; a run sets up 2-4 times and charges each step at its "
             "fastest"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05,
             "max RSS of the bench process plus the server child's"),
    EndToEnd("part1_per_s", "1/s", "higher", 0.25,
             "work units of a block's first part / sum over its slots of "
             "the slot's fastest sample"),
    EndToEnd("part2_per_s", "1/s", "higher", 0.25,
             "the same for the block's second part"),
)


@dataclass(frozen=True)
class PerLayer:
    """One per-layer metric.

    ``layer`` is the ``repro`` module it times, ``moves`` the
    ``workload/end-to-end alias`` pairs it is predicted to move, ``exact``
    marks counts that must repeat exactly for one seed.
    """

    name: str
    unit: str
    better: str
    layer: str
    moves: tuple[str, ...]
    doc: str
    exact: bool = False


def _p(name, unit, better, layer, moves, doc, exact=False) -> PerLayer:
    return PerLayer(name, unit, better, layer, tuple(moves), doc, exact)


_ARCHIVE_IN = "archive_cycle/ingest_rows_per_s"
_ARCHIVE_SCAN = "archive_cycle/scan_rows_per_s"
_SCAN = "serve_mix/scan_qps"
_DASH = "serve_mix/dash_qps"
_REPLAY = "stream_replay/replay_rows_per_s"
_SKEWED = "stream_replay/skewed_rows_per_s"
_SCHED = "cosim_backlog/sched_jobs_per_s"
_PAINT = "cosim_backlog/paint_cells_per_s"
_SETUP3 = ("archive_cycle/setup_s", "serve_mix/setup_s",
           "stream_replay/setup_s")

PER_LAYER: tuple[PerLayer, ...] = (
    _p("datasets.twin_s", "s", "lower", "datasets", _SETUP3,
       "simulate_twin + builder.build + sampler().sample"),
    _p("workload.jobs.catalog_s", "s", "lower", "workload.jobs",
       ["cosim_backlog/setup_s"], "the burst catalog: synthetic_catalog twice"),
    _p("frame.encodings.encode_mb_per_s", "MB/s", "higher",
       "frame.encodings", [_ARCHIVE_IN], "raw MB through encode_column"),
    _p("frame.encodings.decode_mb_per_s", "MB/s", "higher",
       "frame.encodings", [_ARCHIVE_SCAN, _SCAN],
       "decoded MB out of decode_column"),
    _p("frame.encodings.encoded_ratio", "ratio", "lower",
       "frame.encodings", ["archive_cycle/bytes_per_row"],
       "encoded / raw bytes over every encode_column call", exact=True),
    _p("frame.columnar.save_ms_per_shard", "ms", "lower", "frame.columnar",
       [_ARCHIVE_IN], "save_rcs"),
    _p("frame.columnar.open_us_per_shard", "us", "lower", "frame.columnar",
       [_SCAN], "open_rcs: footer parse + validation"),
    _p("frame.columnar.read_projected_ms_per_shard", "ms", "lower",
       "frame.columnar", [_SCAN, _ARCHIVE_SCAN],
       "RcsFile.read(columns=...)"),
    _p("parallel.partition.append_ms_per_shard", "ms", "lower",
       "parallel.partition", [_ARCHIVE_IN], "PartitionedDataset.append"),
    _p("parallel.partition.compact_s", "s", "lower", "parallel.partition",
       [_ARCHIVE_IN], "PartitionedDataset.compact, per call"),
    _p("parallel.partition.compact_rewritten_bytes", "B", "lower",
       "parallel.partition", [_ARCHIVE_IN],
       "bytes save_rcs wrote under one compact()", exact=True),
    _p("parallel.partition.bytes_per_row", "B", "lower",
       "parallel.partition", ["archive_cycle/bytes_per_row"],
       "compacted ds.n_bytes / rows", exact=True),
    _p("parallel.partition.select_time_us", "us", "lower",
       "parallel.partition", [_SCAN], "select_time: zone-map pruning"),
    _p("parallel.partition.read_time_range_ms", "ms", "lower",
       "parallel.partition", [_SCAN], "read_time_range, per shard"),
    _p("parallel.partition.to_table_rows_per_s", "1/s", "higher",
       "parallel.partition", [_ARCHIVE_SCAN], "to_table"),
    _p("parallel.executor.dispatch_us_per_task", "us", "lower",
       "parallel.executor", [_ARCHIVE_SCAN],
       "default-backend Executor.map over 1,000 no-op tasks"),
    _p("frame.window.aggregate_rows_per_s", "1/s", "higher", "frame.window",
       [_ARCHIVE_SCAN, _SCAN, _REPLAY], "window_aggregate"),
    _p("frame.groupby.rows_per_s", "1/s", "higher", "frame.groupby",
       [_ARCHIVE_SCAN, _SCAN, _REPLAY], "group_by"),
    _p("core.coarsen_rows_per_s", "1/s", "higher", "core",
       [_ARCHIVE_SCAN], "coarsen_telemetry"),
    _p("core.aggregate_rows_per_s", "1/s", "higher", "core",
       [_ARCHIVE_SCAN], "cluster_power_series, coarse rows in"),
    _p("pipeline.telemetry_series_ms", "ms", "lower", "pipeline",
       [_ARCHIVE_SCAN], "Pipeline.telemetry_series over the dataset"),
    _p("pipeline.overhead_share", "ratio", "lower", "pipeline",
       [_ARCHIVE_SCAN], "1 - (read + coarsen + aggregate) / series"),
    _p("serve.planner.plan_us", "us", "lower", "serve.planner", [_SCAN],
       "plan_query"),
    _p("serve.planner.tasks_per_query", "count", "lower", "serve.planner",
       [_SCAN], "len(plan.tasks()) over a block's scans", exact=True),
    _p("serve.planner.rows_per_query", "count", "lower", "serve.planner",
       [_SCAN], "rows a scan feeds to coarsen after the node filter",
       exact=True),
    _p("serve.planner.shard_task_ms", "ms", "lower", "serve.planner",
       [_SCAN], "QueryPlan.run_task"),
    _p("serve.planner.finalize_ms", "ms", "lower", "serve.planner",
       [_SCAN], "QueryPlan.finalize"),
    _p("serve.cache.result_hit_ratio", "ratio", "higher", "serve.cache",
       [_DASH], "dash part: result hits / queries (stats op delta)"),
    _p("serve.cache.fragment_hit_ratio", "ratio", "higher", "serve.cache",
       [_DASH], "dash part: fragment hits / fragment lookups"),
    _p("serve.cache.scan_result_hit_ratio", "ratio", "lower", "serve.cache",
       [_SCAN], "scan part: must read 0", exact=True),
    _p("serve.cache.scan_fragment_hit_ratio", "ratio", "lower",
       "serve.cache", [_SCAN], "scan part: must read 0", exact=True),
    _p("serve.cache.get_us", "us", "lower", "serve.cache", [_DASH],
       "ResultCache.get on a resident key"),
    _p("serve.cache.put_us", "us", "lower", "serve.cache", [_DASH],
       "ResultCache.put"),
    _p("serve.server.encode_ms_per_mb", "ms/MB", "lower", "serve.server",
       [_DASH, _SCAN], "table_to_wire + json.dumps, per MB of line"),
    _p("serve.client.decode_ms_per_mb", "ms/MB", "lower", "serve.client",
       [_DASH, _SCAN], "json.loads + table_from_wire, per MB of line"),
    _p("serve.server.ping_rtt_us", "us", "lower", "serve.server", [_DASH],
       "QueryClient.ping round trip, median of 200"),
    _p("serve.server.wire_share", "ratio", "lower", "serve.server", [_DASH],
       "1 - sum(response elapsed_s) / sum(client latency)"),
    _p("serve.server.rejected", "count", "lower", "serve.server",
       ["serve_mix/failed"], "admission rejections, must be 0", exact=True),
    _p("serve.scan_p50_ms", "ms", "lower", "serve.server", [_SCAN],
       "median client latency of a block's scans (overhead-bound)"),
    _p("serve.scan_p90_ms", "ms", "lower", "serve.server", [_SCAN],
       "nearest-rank p90 of a block's scans (volume-bound)"),
    _p("serve.dash_p50_ms", "ms", "lower", "serve.server", [_DASH],
       "all-sample median poll latency"),
    _p("serve.dash_p99_ms", "ms", "lower", "serve.server", [_DASH],
       "all-sample p99 poll latency"),
    _p("stream.source.batch_us", "us", "lower", "stream.source", [_REPLAY],
       "TelemetryReplaySource.next_batch"),
    _p("stream.source.batches", "count", "lower", "stream.source",
       [_REPLAY], "batches of the skew-free replay", exact=True),
    _p("stream.operators.coarsen_us_per_batch", "us", "lower",
       "stream.operators", [_REPLAY, _SKEWED],
       "StreamingCoarsen.process on recorded batches"),
    _p("stream.operators.aggregate_us_per_batch", "us", "lower",
       "stream.operators", [_REPLAY, _SKEWED],
       "StreamingClusterAggregate.process on recorded batches"),
    _p("stream.operators.edges_us_per_batch", "us", "lower",
       "stream.operators", [_REPLAY, _SKEWED],
       "StreamingEdgeDetector.process on recorded batches"),
    _p("stream.operators.pue_us_per_batch", "us", "lower",
       "stream.operators", [_REPLAY, _SKEWED],
       "StreamingPUE.process on recorded batches"),
    _p("stream.runtime.overhead_share", "ratio", "lower", "stream.runtime",
       [_REPLAY], "1 - (source + operators) / graph.run"),
    _p("stream.runtime.late_rows", "count", "lower", "stream.runtime",
       [_SKEWED], "late rows of both replays, must be 0", exact=True),
    _p("stream.runtime.finalize_lag_s", "s", "lower", "stream.runtime",
       [_SKEWED], "mean simulated finalization lag of the skewed replay",
       exact=True),
    _p("stream.batch_ratio", "ratio", "higher", "stream.runtime", [_REPLAY],
       "replay rows/s over one-shot coarsen + aggregate rows/s"),
    _p("workload.scheduler.us_per_event", "us", "lower",
       "workload.scheduler", [_SCHED], "Scheduler.run / n_events"),
    _p("workload.scheduler.max_pending", "count", "lower",
       "workload.scheduler", [_SCHED], "deepest pending queue", exact=True),
    _p("workload.scheduler.queue_scans", "count", "lower",
       "workload.scheduler", [_SCHED], "n_queue_scans", exact=True),
    _p("workload.scheduler.shallow_jobs_per_s", "1/s", "higher",
       "workload.scheduler", [_SCHED],
       "jobs/s on a catalog a third the size, same generator"),
    _p("workload.traces.paint_ms_per_window", "ms", "lower",
       "workload.traces", [_PAINT], "ClusterTraceBuilder.build"),
    _p("workload.traces.active_rows_us", "us", "lower", "workload.traces",
       [_PAINT], "AllocationIntervalIndex.active_rows"),
    _p("obs.trace_overhead_share", "ratio", "lower", "obs", ["*/part1_per_s",
       "*/part2_per_s"], "fastest traced / fastest untraced block - 1"),
    _p("ledger.unattributed_share", "ratio", "lower", "ledger", [],
       "share of traced block wall-clock no layer span covers"),
    _p("host.py_loop_best_ms", "ms", "lower", "host", [],
       "fixed pure-Python loop between blocks, fastest"),
    _p("host.py_loop_median_ms", "ms", "lower", "host", [],
       "fixed pure-Python loop between blocks, median"),
    _p("host.np_kernel_best_ms", "ms", "lower", "host", [],
       "fixed numpy sort between blocks, fastest"),
    _p("host.np_kernel_median_ms", "ms", "lower", "host", [],
       "fixed numpy sort between blocks, median"),
)


def benchmark_json() -> dict:
    """The document committed as ``BENCHMARK.json``."""
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": w.why} for name, w in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
