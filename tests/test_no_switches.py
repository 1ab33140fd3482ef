"""Guard: the environment variables ``src/repro`` reads are a closed set.

Each allowed name is a deployment or observability setting, or a measured
bytes-vs-time trade the README's Performance section keeps on purpose.  A
name that shows up here unannounced is a new user-settable switch between
two implementations of the same bits — record its verdict with the
benchmark ledger first (``ledger/README.md``), then either delete the
losing side or extend this set.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import repro.frame
import repro.obs
from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.frame import (
    AGGREGATIONS,
    RcsFile,
    compression_mode,
    decode_column,
    group_by,
    save_rcs,
    window_aggregate,
)
from repro.frame.encodings import frame_compress, frame_decompress
from repro.frame.window import window_index
from repro.obs import trace
from repro.parallel import Executor, PartitionedDataset
from repro.parallel.executor import _BACKENDS
from repro.pipeline import (ArtifactCache, Pipeline, PipelineConfig,
                            StageStats)
from repro.plan import Query, plan_query
from repro.serve import QueryClient, ResultCache, ServiceConfig, SingleFlight
from repro.serve.stats import LatencyReservoir
from repro.machine import NodePowerModel
from repro.machine.components import node_chip_power
from repro.workload import (ClusterTraceBuilder, PowerAwareScheduler,
                            Scheduler, allocation_chunks)
from repro.stream import (
    NodeStats,
    OnlineSpectral,
    StreamGraph,
    StreamingClusterAggregate,
    StreamingCoarsen,
    StreamingEdgeDetector,
    StreamingPUE,
    TelemetryReplaySource,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ALLOWED = {
    "REPRO_TRACE",
    "REPRO_PROFILE",
    "REPRO_MAX_WORKERS",
    "REPRO_MP_CONTEXT",
    "REPRO_RCS_COMPRESSION",
}

#: ``os.environ.get("X"``, ``os.environ["X"]``, ``os.getenv("X"`` — the
#: key may sit on the line after the opening bracket
_ENV_READ = re.compile(
    r"""os\.(?:environ(?:\.\w+\(|\[)|getenv\()\s*["'](REPRO_\w+)["']"""
)


def test_env_switches_are_a_closed_set():
    read = {
        name
        for path in SRC.rglob("*.py")
        for name in _ENV_READ.findall(path.read_text())
    }
    assert read == ALLOWED, (
        f"unexpected: {sorted(read - ALLOWED)}, "
        f"no longer read: {sorted(ALLOWED - read)}"
    )


def _params(cls) -> list[str]:
    return list(inspect.signature(cls.__init__).parameters)[1:]


def test_executor_and_pipeline_knobs_are_a_closed_set():
    """The next transport or start-method knob arrives with its
    measurement, like the env vars above.  The pipeline picks each
    stage's backend; no user does."""
    assert _params(Executor) == ["backend", "max_workers", "mp_context"]
    assert _BACKENDS == ("threads", "processes")
    assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
        "chunk_seconds", "max_workers", "cache_dir",
    ]


def test_stream_knobs_are_a_closed_set():
    """Queue capacity, a coarsen origin, a NaN switch, an aggregate
    lateness, a snapshot ring, a stats injector, a dataset replay input
    with its projection, two PUE overhead kinds with a rolling span, a
    time column, a coarsen width and grouping, an edge return fraction
    and a Welch segment, hop and taper each had one value in use and went;
    the next stream knob arrives with its measurement."""
    assert _params(StreamGraph) == ["source"]
    assert _params(TelemetryReplaySource) == [
        "telemetry", "batch_interval_s", "skew", "seed", "loss_events",
    ]
    assert _params(StreamingPUE) == ["it"]
    assert _params(StreamingCoarsen) == ["values", "lateness_s"]
    assert _params(StreamingClusterAggregate) == ["value"]
    assert _params(StreamingEdgeDetector) == ["threshold_w", "value"]
    assert _params(OnlineSpectral) == ["dt", "value"]


def test_windowed_kernel_signatures_are_a_closed_set():
    """The streaming buffer hands the kernels its window indices through
    a private helper, not a parameter; the operators' constructors are
    pinned above.  The grid is epoch-aligned, so no window origin and no
    renamed window-start column.  A knob here arrives with its
    measurement.  The stats are the archive's; the time and node columns
    are the archive's, so no kernel takes them."""
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(window_index) == ["times", "width"]
    assert params(window_aggregate) == [
        "table", "time", "width", "values", "by",
    ]
    assert params(group_by) == ["table", "keys", "aggs", "presorted"]
    assert AGGREGATIONS == ("count", "sum", "mean", "min", "max", "std")
    assert params(coarsen_telemetry) == ["telemetry", "values", "width"]
    assert params(cluster_power_series) == ["coarse", "value", "presorted"]


def test_workload_knobs_are_a_closed_set():
    """Four ``engine=`` options each had one value in use outside tests
    and went (the reference scheduler is ``tests/workload/
    reference_scheduler.py``); a second painter or core arrives with the
    ledger workload that shows it, selected from the data, not by a knob."""
    assert _params(Scheduler) == ["config", "seed", "drain_windows"]
    assert _params(PowerAwareScheduler) == ["power_cap_w", "config", "seed"]
    assert _params(ClusterTraceBuilder) == [
        "catalog", "schedule", "chips", "seed",
    ]
    assert list(inspect.signature(ClusterTraceBuilder.build).parameters)[1:] == [
        "t0", "t1", "dt", "per_gpu", "track_alloc",
    ]


def test_power_kernel_signature_is_a_closed_set():
    """One slot-ordered kernel turns utilisations into per-node watts;
    the per-GPU detail is an output array a per-GPU build passes, not a
    switch between two routes."""
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(NodePowerModel.node_dc_power)[1:] == [
        "nodes", "cpu_util", "gpu_util", "gpus_used", "gpu_detail",
    ]
    assert params(node_chip_power) == [
        "util", "factors", "n_active", "idle_w", "tdp_w", "cap_w", "detail",
    ]
    assert params(allocation_chunks) == [
        "model", "catalog", "row", "nodes", "noise", "times", "i0", "i1",
        "begin", "end", "per_gpu",
    ]


def test_serve_knobs_are_a_closed_set():
    """A disk result tier, an encode-offload size, a cabinet width, a
    client decode switch and a latency-reservoir size each had one value
    in use and went, and so did the query's time, node and PUE-overhead
    fields; what is left are deployment and observability settings and
    what a client asks."""
    assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
        "max_inflight", "max_queue", "tenant_inflight", "cache_bytes",
        "fragment_bytes", "workers", "slow_query_s", "slow_query_log",
    ]
    assert _params(ResultCache) == ["max_bytes"]
    assert _params(LatencyReservoir) == []
    assert _params(ArtifactCache) == ["root"]
    assert list(inspect.signature(plan_query).parameters) == [
        "query", "dataset",
    ]
    assert [f.name for f in dataclasses.fields(Query)] == [
        "t_begin", "t_end", "nodes", "cabinets", "metrics", "width",
        "level", "derived",
    ]
    assert list(inspect.signature(QueryClient.query).parameters)[1:] == [
        "query",
    ]
    assert [
        name for name, _ in inspect.getmembers(SingleFlight, callable)
        if not name.startswith("_")
    ] == ["run"]


def test_frame_surface_is_a_closed_set():
    """Rolling kernels, an as-of join, a CSV reader, a stats describer, a
    recoarsener and two ``Table`` constructors had no caller outside tests
    and went; a new frame verb arrives with its first caller.  The codec
    policy has one control, ``REPRO_RCS_COMPRESSION`` (no per-call
    ``compression=``)."""
    assert list(inspect.signature(save_rcs).parameters) == [
        "table", "path", "zones",
    ]
    assert list(inspect.signature(compression_mode).parameters) == []
    assert repro.frame.__all__ == [
        "Table", "concat", "factorize", "multi_factorize", "group_by",
        "AGGREGATIONS", "join", "interval_join", "window_aggregate",
        "save_npz", "load_npz", "write_csv", "RcsFile", "save_rcs",
        "open_rcs", "load_rcs", "zone_map", "CODECS", "ColumnarFormatError",
        "compression_mode", "decode_column", "encode_column",
    ]


def test_one_deflate_with_no_knob():
    """Columns are framed by one zlib deflate at one level and one
    strategy: no parameter selects another, and no second framing path
    (a plain ``zlib.compress``) sits beside it.  The reader takes the
    column's bound, never a setting."""
    assert list(inspect.signature(frame_compress).parameters) == ["payload"]
    assert list(inspect.signature(frame_decompress).parameters) == [
        "tag", "buf", "limit",
    ]
    text = (SRC / "frame" / "encodings.py").read_text()
    assert len(re.findall(r"\bcompressobj\(", text)) == 1
    assert "zlib.compress(" not in text


def test_read_surface_is_a_closed_set():
    """A second multi-shard reader that decoded every shard into one
    preallocated table (``read_time_range_merged``, ``read_range_into``,
    ``decode_column(out=)``) had no ledger number behind it and went:
    a multi-shard read is per-shard reads plus ``concat``.  A
    destination-buffer path arrives with its ledger verdict.  Every read
    slices, prunes and compacts on ``TIME_COLUMN``: the ``time=``
    parameter every caller set to it went.  The archive stage of
    ``Pipeline`` caches nothing: its input is already on disk."""
    def params(fn):
        return list(inspect.signature(fn).parameters)

    def methods(cls):
        return [
            name for name, _ in inspect.getmembers(cls, callable)
            if not name.startswith("_")
        ]

    assert params(decode_column) == ["meta", "payload", "dtype", "n_rows"]
    assert methods(RcsFile) == ["read", "read_time_range"]
    assert params(RcsFile.read) == ["self", "columns", "rows"]
    assert params(RcsFile.read_time_range) == [
        "self", "t_begin", "t_end", "columns",
    ]
    assert methods(PartitionedDataset) == [
        "append", "compact", "create", "encoding_summary", "read",
        "read_time_range", "select_time", "select_where", "time_bounds",
        "to_table",
    ]
    assert params(PartitionedDataset.read) == ["self", "index"]
    assert params(PartitionedDataset.read_time_range) == [
        "self", "index", "t_begin", "t_end", "columns",
    ]
    assert params(PartitionedDataset.select_time) == [
        "self", "t_begin", "t_end",
    ]
    assert params(PartitionedDataset.time_bounds) == ["self", "index"]
    assert params(PartitionedDataset.to_table) == ["self"]
    assert params(PartitionedDataset.compact) == ["self", "target_rows"]
    assert params(Pipeline.telemetry_series) == ["self", "dataset", "query"]
    assert "__iter__" not in vars(PartitionedDataset)


def test_obs_surface_is_a_closed_set():
    """A disabled-span counter, a second trace-file variable, an
    ``activated`` wrapper, descriptor views of private registries and the
    process-wide metrics registry had no reader and went: every stats
    family holds plain counters in one record type."""
    assert repro.obs.__all__ == [
        "trace", "span", "SpanContext", "current_context", "Counters",
        "CounterTable", "SamplingProfiler", "profile_from_env", "NdjsonLog",
        "TraceError", "load_trace", "validate_spans", "build_forest",
        "flame_summary", "to_chrome",
    ]
    assert trace.__all__ == [
        "SpanContext", "span", "current_context", "current_span", "enable",
        "disable", "is_enabled", "enabled_from_env", "trace_path", "flush",
        "capture", "merge_spans",
    ]
    assert StageStats.FIELDS == (
        "calls", "wall_s", "task_s", "rows_in", "rows_out", "bytes_out",
        "cache_hits", "cache_misses",
    )
    assert NodeStats.FIELDS == (
        "batches_in", "batches_out", "rows_in", "rows_out", "late_rows",
        "nan_rows", "wall_s", "lag_sum_s", "lag_n",
    )
