"""Per-stage instrumentation for the chunked pipeline.

Every pipeline stage (a fan-out of chunk tasks through the
:class:`~repro.parallel.executor.Executor`) records wall time, rows in/out,
bytes produced, and artifact-cache hit/miss counts.  The counters answer the
operational questions the paper's own pipeline had to answer: where does the
year-scale run spend its time, and how much work does a warm cache skip?

Since the ``repro.obs`` re-base the numbers live in a per-run
:class:`~repro.obs.metrics.MetricsRegistry` (one per
:class:`PipelineStats`, so concurrent pipelines never share counters);
:class:`StageStats` is a typed view whose attributes read and write
registry counters labeled by stage name.  The public surface —
``record()``, attribute access, ``report()``, ``merge()`` — is unchanged
and pinned by ``tests/obs/test_stats_compat.py``.
"""

from __future__ import annotations

import threading

from repro.core.report import render_table
from repro.obs.metrics import MetricField, MetricsRegistry


class StageStats:
    """Counters for one named pipeline stage: each attribute is a view of
    the registry counter ``pipeline.<attr>{stage=<name>}``."""

    FIELDS = ("calls", "wall_s", "rows_in", "rows_out", "bytes_out",
              "cache_hits", "cache_misses")

    calls = MetricField()
    wall_s = MetricField()
    rows_in = MetricField()
    rows_out = MetricField()
    bytes_out = MetricField()
    cache_hits = MetricField()
    cache_misses = MetricField()

    def __init__(self, name: str, registry: MetricsRegistry | None = None):
        self.name = name
        self._registry = registry if registry is not None else MetricsRegistry()

    def _metric(self, attr: str):
        return self._registry.counter(f"pipeline.{attr}", stage=self.name)

    @property
    def cache_hit_ratio(self) -> float:
        """Hits / (hits + misses); 0.0 when the stage never consulted a cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.FIELDS)
        return f"StageStats(name={self.name!r}, {fields})"


class PipelineStats:
    """Aggregated per-stage counters for one pipeline run."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self.stages: dict[str, StageStats] = {}
        self._lock = threading.Lock()

    def stage(self, name: str) -> StageStats:
        """The (auto-created) stats record for ``name``."""
        with self._lock:
            st = self.stages.get(name)
            if st is None:
                st = self.stages[name] = StageStats(name, self.registry)
            return st

    def record(
        self,
        name: str,
        *,
        wall_s: float = 0.0,
        calls: int = 1,
        rows_in: int = 0,
        rows_out: int = 0,
        bytes_out: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> None:
        """Accumulate counters onto stage ``name`` (thread-safe)."""
        st = self.stage(name)
        with self._lock:
            st.calls += calls
            st.wall_s += wall_s
            st.rows_in += rows_in
            st.rows_out += rows_out
            st.bytes_out += bytes_out
            st.cache_hits += cache_hits
            st.cache_misses += cache_misses

    # ---------------- roll-ups ----------------

    @property
    def total_cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.stages.values())

    @property
    def total_cache_misses(self) -> int:
        return sum(s.cache_misses for s in self.stages.values())

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of cache-checked chunk tasks served from the cache."""
        total = self.total_cache_hits + self.total_cache_misses
        return self.total_cache_hits / total if total else 0.0

    def report(self) -> str:
        """Rendered per-stage counter table plus the cache roll-up line."""
        rows = []
        for st in self.stages.values():
            rows.append([
                st.name,
                st.calls,
                f"{st.wall_s:.3f}",
                st.rows_in,
                st.rows_out,
                st.bytes_out,
                f"{st.cache_hits}/{st.cache_hits + st.cache_misses}",
            ])
        table = render_table(
            ["stage", "calls", "seconds", "rows in", "rows out", "bytes", "cache"],
            rows,
            title="pipeline stages",
        )
        total = self.total_cache_hits + self.total_cache_misses
        if total:
            line = (
                f"cache: {self.total_cache_hits}/{total} chunk tasks served "
                f"from cache ({100.0 * self.cache_hit_ratio:.0f}%)"
            )
        else:
            line = "cache: disabled"
        return table + "\n" + line

    def merge(self, other: "PipelineStats") -> None:
        """Fold another run's counters into this one."""
        for name, st in other.stages.items():
            self.record(
                name,
                wall_s=st.wall_s,
                calls=st.calls,
                rows_in=st.rows_in,
                rows_out=st.rows_out,
                bytes_out=st.bytes_out,
                cache_hits=st.cache_hits,
                cache_misses=st.cache_misses,
            )
