"""Per-stage instrumentation for the chunked pipeline.

Every pipeline stage (a fan-out of chunk tasks through the
:class:`~repro.parallel.executor.Executor`) records its wall time, the
summed run time of its tasks, rows in/out, bytes produced, and
artifact-cache hit/miss counts.  A stage whose task seconds exceed its
wall seconds ran its tasks in parallel.  The counters answer the
operational questions the paper's own pipeline had to answer: where does the
year-scale run spend its time, and how much work does a warm cache skip?

Each :class:`StageStats` holds its counters as plain attributes; the
``report()`` text and attribute values are pinned by
``tests/obs/test_stats_compat.py``.
"""

from __future__ import annotations

import threading

from repro.core.report import render_table


class StageStats:
    """Counters for one named pipeline stage."""

    FIELDS = ("calls", "wall_s", "task_s", "rows_in", "rows_out",
              "bytes_out", "cache_hits", "cache_misses")
    __slots__ = ("name",) + FIELDS

    def __init__(self, name: str):
        self.name = name
        for k in self.FIELDS:
            setattr(self, k, 0)

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
        self.stages: dict[str, StageStats] = {}
        self._lock = threading.Lock()

    def stage(self, name: str) -> StageStats:
        """The (auto-created) stats record for ``name``."""
        with self._lock:
            st = self.stages.get(name)
            if st is None:
                st = self.stages[name] = StageStats(name)
            return st

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
        st = self.stage(name)
        with self._lock:
            st.calls += calls
            st.wall_s += wall_s
            st.task_s += task_s
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
                f"{st.task_s:.3f}" if st.task_s else "-",
                st.rows_in,
                st.rows_out,
                st.bytes_out,
                f"{st.cache_hits}/{st.cache_hits + st.cache_misses}",
            ])
        table = render_table(
            ["stage", "calls", "seconds", "task s", "rows in", "rows out",
             "bytes", "cache"],
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
