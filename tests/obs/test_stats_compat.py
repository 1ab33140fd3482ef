"""Golden-compat pins for the stats silos' public output shapes.

These literals were captured from the pre-``repro.obs`` implementations
of ``PipelineStats``, ``ServiceStats`` and ``StreamStats``.  However the
counters are stored, the output must not move: same ``report()`` text,
same ``snapshot()`` dict, same ``state_dict()`` keys and values, byte
for byte.  A diff here means a caller-visible behavior change, not a
formatting preference.
"""

from __future__ import annotations

import json

from repro.pipeline.stats import PipelineStats
from repro.serve.session import Admission
from repro.serve.stats import ServiceStats
from repro.stream.stats import StreamStats

PIPELINE_REPORT = (
    "pipeline stages\n"
    "stage    calls  seconds  task s  rows in  rows out  bytes  cache\n"
    "-------  -----  -------  ------  -------  --------  -----  -----\n"
    "coarsen  2      0.500    0.750   100      10        800    1/4  \n"
    "fused    1      1.250    -       50       5         400    0/0  \n"
    "cache: 1/4 chunk tasks served from cache (25%)"
)

SERVICE_SNAPSHOT = {
    "queries": 6,
    "ok": 4,
    "rejected": 1,
    "errors": 1,
    "cache_hits": 1,
    "cache_shared": 1,
    "executed": 2,
    "rows_served": 390,
    "shards_scanned": 6,
    "shards_pruned": 6,
    "frag_hits": 1,
    "frag_shared": 1,
    "frag_misses": 2,
    "tasks_full": 2,
    "tasks_aligned": 1,
    "tasks_partial": 1,
    "fragment_hit_ratio": 0.5,
    "partial_coverage_ratio": 0.5,
    "fanout_mean": 3.0,
    "encode_offloads": 3,
    "p50_ms": 6.5,
    "p99_ms": 29.4,
    "running": 1,
    "queued": 0,
    "rejected_capacity": 1,
    "rejected_quota": 0,
    "tenants": {
        "alice": {
            "queries": 4,
            "ok": 3,
            "rejected": 1,
            "queued": 2,
            "cache_hits": 1,
            "frag_hits": 2,
            "shards_scanned": 6,
            "rows_served": 270,
        }
    },
}

SERVICE_REPORT = (
    "query service\n"
    "counter                            value      \n"
    "---------------------------------  -----------\n"
    "queries                            6          \n"
    "ok / rejected / errors             4 / 1 / 1  \n"
    "cache hits / shared / executed     1 / 1 / 2  \n"
    "rows served                        390        \n"
    "shards scanned / pruned            6 / 6      \n"
    "fragments hit / shared / computed  1 / 1 / 2  \n"
    "fragment hit ratio                 0.50       \n"
    "tasks full / aligned / partial     2 / 1 / 1  \n"
    "partial-coverage ratio             0.50       \n"
    "shard fan-out mean / p99           3.0 / 4    \n"
    "encode offloads                    3          \n"
    "latency p50 / p99 (ms)             6.5 / 29.4 \n"
    "exec p50 / p99 (ms)                18.0 / 27.8\n"
    "tenants\n"
    "tenant  queries  ok  rejected  queued  hits  frags  shards  rows  "
    "seconds\n"
    "------  -------  --  --------  ------  ----  -----  ------  ----  "
    "-------\n"
    "alice   4        3   1         2       1     2      6       270   "
    "0.125  "
)

STREAM_REPORT = (
    "stream nodes\n"
    "node     batches  rows in  rows out  late  lag s  "
    "seconds\n"
    "-------  -------  -------  --------  ----  -----  "
    "-------\n"
    "source   10       1000     1000      0     -      "
    "0.500  \n"
    "coarsen  10       1000     100       7     1.50   "
    "0.250  \n"
    "watermark accounting: 7 late rows dropped"
)

STREAM_STATE = {
    "source": {
        "batches_in": 10, "batches_out": 10, "rows_in": 1000,
        "rows_out": 1000, "late_rows": 0, "nan_rows": 0,
        "wall_s": 0.5, "lag_sum_s": 0.0, "lag_n": 0,
    },
    "coarsen": {
        "batches_in": 10, "batches_out": 9, "rows_in": 1000,
        "rows_out": 100, "late_rows": 7, "nan_rows": 3,
        "wall_s": 0.25, "lag_sum_s": 12.0, "lag_n": 8,
    },
}


def make_pipeline_stats() -> PipelineStats:
    ps = PipelineStats()
    ps.record("coarsen", wall_s=0.5, task_s=0.75, calls=2, rows_in=100,
              rows_out=10, bytes_out=800, cache_hits=1, cache_misses=3)
    ps.record("fused", wall_s=1.25, calls=1, rows_in=50, rows_out=5,
              bytes_out=400)
    return ps


def make_service_stats() -> tuple[ServiceStats, Admission]:
    ss = ServiceStats()
    ss.record_ok(cache="miss", rows=120, elapsed_s=0.010, shards_scanned=4,
                 shards_pruned=2, executed_s=0.008,
                 fragments={"hits": 1, "shared": 1, "misses": 2,
                            "full": 2, "aligned": 1, "partial": 1})
    ss.record_ok(cache="hit", rows=120, elapsed_s=0.002)
    ss.record_ok(cache="shared", rows=120, elapsed_s=0.003)
    ss.record_ok(cache="miss", rows=30, elapsed_s=0.030, shards_scanned=2,
                 shards_pruned=4, executed_s=0.028)
    ss.record_rejected()
    ss.record_error()
    ss.encode_offloads = 3
    adm = Admission(max_inflight=2, max_queue=2, tenant_inflight=2)
    t = adm.tenant("alice")
    t.queries, t.ok, t.rejected, t.queued = 4, 3, 1, 2
    t.cache_hits, t.frag_hits, t.shards_scanned, t.rows_served = 1, 2, 6, 270
    t.wall_s = 0.125
    adm.running, adm.waiting = 1, 0
    adm.rejected_capacity, adm.rejected_quota = 1, 0
    return ss, adm


def make_stream_stats() -> StreamStats:
    st = StreamStats()
    n = st.node("source")
    n.batches_in, n.batches_out, n.rows_in, n.rows_out = 10, 10, 1000, 1000
    n.wall_s = 0.5
    c = st.node("coarsen")
    c.batches_in, c.batches_out, c.rows_in, c.rows_out = 10, 9, 1000, 100
    c.late_rows, c.nan_rows = 7, 3
    c.wall_s, c.lag_sum_s, c.lag_n = 0.25, 12.0, 8
    return st


def test_pipeline_report_shape_pinned():
    assert make_pipeline_stats().report() == PIPELINE_REPORT


def test_pipeline_counter_access_pinned():
    ps = make_pipeline_stats()
    st = ps.get("coarsen")
    assert (st.calls, st.wall_s, st.task_s) == (2, 0.5, 0.75)
    assert (st.rows_in, st.rows_out) == (100, 10)
    assert (st.bytes_out, st.cache_hits, st.cache_misses) == (800, 1, 3)
    assert st.cache_hit_ratio == 0.25
    assert ps.total("cache_hits") == 1
    assert ps.total("cache_misses") == 3
    assert ps.cache_hit_ratio == 0.25


def test_service_snapshot_shape_pinned():
    ss, adm = make_service_stats()
    assert ss.snapshot(adm) == SERVICE_SNAPSHOT
    # ``==`` ignores key order; ``query --stats`` and the wire do not
    assert list(ss.snapshot(adm)) == list(SERVICE_SNAPSHOT)
    bare = ss.snapshot()
    assert "tenants" not in bare and "running" not in bare
    assert bare == {k: v for k, v in SERVICE_SNAPSHOT.items()
                    if k not in ("running", "queued", "rejected_capacity",
                                 "rejected_quota", "tenants")}


def test_service_report_shape_pinned():
    ss, adm = make_service_stats()
    assert ss.report(adm) == SERVICE_REPORT
    # without tenants only the counter table renders
    assert ss.report() == SERVICE_REPORT.split("\ntenants\n")[0]


def test_service_empty_latency_renders_dash():
    ss = ServiceStats()
    text = ss.report()
    row = next(l for l in text.splitlines()
               if l.startswith("latency p50 / p99 (ms)"))
    assert row.rstrip().endswith("- / -")
    snap = ss.snapshot()
    assert snap["queries"] == 0 and snap["fanout_mean"] == 0.0
    # no samples, no quantile: null on the wire, where NaN is not JSON
    assert snap["p50_ms"] is None and snap["p99_ms"] is None
    json.dumps(snap, allow_nan=False)


def test_stream_report_shape_pinned():
    assert make_stream_stats().report() == STREAM_REPORT


def test_stream_state_dict_pinned():
    state = make_stream_stats().state_dict()
    assert state == STREAM_STATE
    assert list(state) == list(STREAM_STATE)
    for name, counters in state.items():
        assert list(counters) == list(STREAM_STATE[name])


def test_stream_state_roundtrip():
    st = StreamStats()
    st.load_state(STREAM_STATE)
    assert st.state_dict() == STREAM_STATE
    assert st.report() == STREAM_REPORT
    assert st.total_late_rows == 7
    assert st.node("coarsen").mean_lag_s == 1.5
