"""Per-stage instrumentation for the chunked pipeline.

Every pipeline stage (a fan-out of chunk tasks through the
:class:`~repro.parallel.executor.Executor`) records its wall time, the
summed run time of its tasks, rows in/out, bytes produced, and
artifact-cache hit/miss counts.  A stage whose task seconds exceed its
wall seconds ran its tasks in parallel.  The counters answer the
operational questions the paper's own pipeline had to answer: where does the
year-scale run spend its time, and how much work does a warm cache skip?

Each :class:`StageStats` is a :class:`~repro.obs.counters.Counters`
record; the ``report()`` text and attribute values are pinned by
``tests/obs/test_stats_compat.py``.
"""

from __future__ import annotations

import threading

from repro.core.report import render_table
from repro.obs.counters import Counters, CounterTable


class StageStats(Counters):
    """Counters for one named pipeline stage."""

    FIELDS = ("calls", "wall_s", "task_s", "rows_in", "rows_out",
              "bytes_out", "cache_hits", "cache_misses")
    __slots__ = FIELDS

    @property
    def cache_hit_ratio(self) -> float:
        """Hits / (hits + misses); 0.0 when the stage never consulted a cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class PipelineStats(CounterTable):
    """Per-stage counters for one pipeline run, keyed by stage name."""

    record_type = StageStats

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()

    def record(
        self,
        name: str,
        *,
        wall_s: float = 0.0,
        task_s: float = 0.0,
        calls: int = 1,
        rows_in: int = 0,
        rows_out: int = 0,
        bytes_out: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> None:
        """Accumulate counters onto stage ``name`` (thread-safe).

        ``wall_s`` is the stage's own elapsed time, ``task_s`` the sum of
        its tasks' run times (0 for a stage that fans nothing out)."""
        with self._lock:
            st = self.get(name)
            st.calls += calls
            st.wall_s += wall_s
            st.task_s += task_s
            st.rows_in += rows_in
            st.rows_out += rows_out
            st.bytes_out += bytes_out
            st.cache_hits += cache_hits
            st.cache_misses += cache_misses

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of cache-checked chunk tasks served from the cache."""
        hits = self.total("cache_hits")
        total = hits + self.total("cache_misses")
        return hits / total if total else 0.0

    def report(self) -> str:
        """Rendered per-stage counter table plus the cache roll-up line."""
        rows = [
            [name, st.calls, f"{st.wall_s:.3f}",
             f"{st.task_s:.3f}" if st.task_s else "-",
             st.rows_in, st.rows_out, st.bytes_out,
             f"{st.cache_hits}/{st.cache_hits + st.cache_misses}"]
            for name, st in self.records.items()
        ]
        table = render_table(
            ["stage", "calls", "seconds", "task s", "rows in", "rows out",
             "bytes", "cache"],
            rows,
            title="pipeline stages",
        )
        hits = self.total("cache_hits")
        total = hits + self.total("cache_misses")
        if total:
            line = (
                f"cache: {hits}/{total} chunk tasks served "
                f"from cache ({100.0 * self.cache_hit_ratio:.0f}%)"
            )
        else:
            line = "cache: disabled"
        return table + "\n" + line
