"""Service observability: query counters, tail latency, per-tenant table.

The counters answer the operational questions a shared telemetry front end
gets asked: how many queries, how many served from cache, what do p50/p99
look like, who is being throttled.  Latencies are kept in a bounded
reservoir (the most recent :data:`RESERVOIR_SAMPLES` samples), so a
long-running server reports *current* tail behavior, not a year-long
average.

:class:`ServiceStats` is a :class:`~repro.obs.counters.Counters` record
of plain ints (two services in one process never share numbers); the
reservoirs are the one latency estimator every reader (``snapshot()``,
``report()``) takes its quantiles from.  Every mutation and the
``snapshot()`` / ``report()`` reads take one lock — a snapshot is a
consistent point in time even when worker-pool callbacks land
concurrently (the invariant ``queries == ok + rejected + errors`` holds
in *every* snapshot, and no bump is lost, hammered by
``tests/obs/test_service_stats_atomic.py``).  Output shapes are pinned
by ``tests/obs/test_stats_compat.py``.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from repro.core.report import render_table
from repro.obs.counters import Counters
from repro.serve.session import Admission

__all__ = ["LatencyReservoir", "ServiceStats"]

#: latency samples a :class:`LatencyReservoir` keeps
RESERVOIR_SAMPLES = 8192


class LatencyReservoir:
    """The most recent :data:`RESERVOIR_SAMPLES` latency samples, in
    seconds."""

    def __init__(self):
        self._samples: deque[float] = deque(maxlen=RESERVOIR_SAMPLES)

    def add(self, seconds: float) -> None:
        self._samples.append(float(seconds))

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, q: float) -> float:
        """The q-th percentile (seconds); NaN with no samples."""
        if not self._samples:
            return float("nan")
        return float(np.percentile(np.fromiter(self._samples, float), q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        if not self._samples:
            return float("nan")
        return float(np.mean(np.fromiter(self._samples, float)))


class ServiceStats(Counters):
    """Aggregated counters for one :class:`~repro.serve.server.QueryService`."""

    FIELDS = (
        "queries", "ok", "rejected", "errors",
        "cache_hits",
        "cache_shared",     # single-flight followers
        "executed",         # plans that actually ran shard tasks
        "rows_served", "shards_scanned", "shards_pruned",
        # fragment-cache accounting (executed queries only)
        "frag_hits",        # tasks served straight from the cache
        "frag_shared",      # tasks that joined another query's compute
        "frag_misses",      # tasks that computed (and cached) a fragment
        "tasks_full",       # shard fully covered -> fragment as-is
        "tasks_aligned",    # grid-aligned partial -> fragment slice
        "tasks_partial",    # unaligned partial -> direct, uncached
        "encode_offloads",  # large NDJSON encodes moved off the loop
    )

    def __init__(self):
        super().__init__()
        self._lock = threading.RLock()
        self.fanout = LatencyReservoir()  # shards scanned per executed query
        self.latency = LatencyReservoir()
        self.exec_latency = LatencyReservoir()

    # ---------------- recording ----------------

    def record_ok(
        self,
        *,
        cache: str,
        rows: int,
        elapsed_s: float,
        shards_scanned: int = 0,
        shards_pruned: int = 0,
        executed_s: float | None = None,
        fragments: dict | None = None,
    ) -> None:
        with self._lock:
            self.queries += 1
            self.ok += 1
            self.rows_served += rows
            self.latency.add(elapsed_s)
            if cache == "hit":
                self.cache_hits += 1
            elif cache == "shared":
                self.cache_shared += 1
            else:
                self.executed += 1
                self.shards_scanned += shards_scanned
                self.shards_pruned += shards_pruned
                self.fanout.add(float(shards_scanned))
                if executed_s is not None:
                    self.exec_latency.add(executed_s)
                if fragments:
                    self.frag_hits += fragments.get("hits", 0)
                    self.frag_shared += fragments.get("shared", 0)
                    self.frag_misses += fragments.get("misses", 0)
                    self.tasks_full += fragments.get("full", 0)
                    self.tasks_aligned += fragments.get("aligned", 0)
                    self.tasks_partial += fragments.get("partial", 0)

    def record_rejected(self) -> None:
        with self._lock:
            self.queries += 1
            self.rejected += 1

    def record_error(self) -> None:
        with self._lock:
            self.queries += 1
            self.errors += 1

    def record_offload(self) -> None:
        """One large answer encoded on the worker pool."""
        with self._lock:
            self.encode_offloads += 1

    # ---------------- views ----------------

    @property
    def fragment_hit_ratio(self) -> float:
        """Fraction of fragment-eligible tasks served without computing
        (cache hits + shared flights)."""
        with self._lock:
            total = self.frag_hits + self.frag_shared + self.frag_misses
            if not total:
                return 0.0
            return (self.frag_hits + self.frag_shared) / total

    @property
    def partial_coverage_ratio(self) -> float:
        """Fraction of kernel tasks that only partially covered their
        shard (aligned slices + unaligned directs) — how ragged query
        edges are against the shard grid."""
        with self._lock:
            total = self.tasks_full + self.tasks_aligned + self.tasks_partial
            if not total:
                return 0.0
            return (self.tasks_aligned + self.tasks_partial) / total

    def snapshot(self, admission: Admission | None = None) -> dict:
        """JSON-safe counters (the wire answer to the ``stats`` op).

        Taken under the stats lock, so the numbers are one consistent
        point in time: ``queries == ok + rejected + errors`` in every
        snapshot however many threads are recording.
        """
        with self._lock:
            out = self.as_dict()
            out.update(
                fragment_hit_ratio=round(self.fragment_hit_ratio, 4),
                partial_coverage_ratio=round(self.partial_coverage_ratio, 4),
                fanout_mean=round(self.fanout.mean, 2)
                if len(self.fanout) else 0.0,
                # popped and re-added: the pinned wire order has it here
                encode_offloads=out.pop("encode_offloads"),
                # None, not NaN, before the first answer: the snapshot
                # goes out as strict JSON
                p50_ms=round(self.latency.p50 * 1e3, 3)
                if len(self.latency) else None,
                p99_ms=round(self.latency.p99 * 1e3, 3)
                if len(self.latency) else None,
            )
            if admission is not None:
                out["running"] = admission.running
                out["queued"] = admission.waiting
                out["rejected_capacity"] = admission.rejected_capacity
                out["rejected_quota"] = admission.rejected_quota
                out["tenants"] = {
                    name: {
                        "queries": t.queries,
                        "ok": t.ok,
                        "rejected": t.rejected,
                        "queued": t.queued,
                        "cache_hits": t.cache_hits,
                        "frag_hits": t.frag_hits,
                        "shards_scanned": t.shards_scanned,
                        "rows_served": t.rows_served,
                    }
                    for name, t in sorted(admission.tenants.items())
                }
            return out

    def report(self, admission: Admission | None = None) -> str:
        """Rendered counter tables (the ``serve`` CLI's exit summary)."""
        def ms(v: float) -> str:
            return "-" if np.isnan(v) else f"{v * 1e3:.1f}"

        with self._lock:
            rows = [
                ["queries", self.queries],
                ["ok / rejected / errors",
                 f"{self.ok} / {self.rejected} / {self.errors}"],
                ["cache hits / shared / executed",
                 f"{self.cache_hits} / {self.cache_shared} / {self.executed}"],
                ["rows served", f"{self.rows_served:,}"],
                ["shards scanned / pruned",
                 f"{self.shards_scanned} / {self.shards_pruned}"],
                ["fragments hit / shared / computed",
                 f"{self.frag_hits} / {self.frag_shared} / {self.frag_misses}"],
                ["fragment hit ratio", f"{self.fragment_hit_ratio:.2f}"],
                ["tasks full / aligned / partial",
                 f"{self.tasks_full} / {self.tasks_aligned} / "
                 f"{self.tasks_partial}"],
                ["partial-coverage ratio",
                 f"{self.partial_coverage_ratio:.2f}"],
                ["shard fan-out mean / p99",
                 "-" if not len(self.fanout)
                 else f"{self.fanout.mean:.1f} / {self.fanout.p99:.0f}"],
                ["encode offloads", self.encode_offloads],
                ["latency p50 / p99 (ms)",
                 f"{ms(self.latency.p50)} / {ms(self.latency.p99)}"],
                ["exec p50 / p99 (ms)",
                 f"{ms(self.exec_latency.p50)} / {ms(self.exec_latency.p99)}"],
            ]
            text = render_table(["counter", "value"], rows,
                                title="query service")
            if admission is None or not admission.tenants:
                return text
            tenant_rows = [
                [t.name, t.queries, t.ok, t.rejected, t.queued, t.cache_hits,
                 t.frag_hits, t.shards_scanned,
                 f"{t.rows_served:,}", f"{t.wall_s:.3f}"]
                for t in sorted(admission.tenants.values(),
                                key=lambda t: t.name)
            ]
            return text + "\n" + render_table(
                ["tenant", "queries", "ok", "rejected", "queued", "hits",
                 "frags", "shards", "rows", "seconds"],
                tenant_rows,
                title="tenants",
            )
