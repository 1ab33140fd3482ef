"""Per-node counters for the streaming runtime.

The streaming analogue of :class:`~repro.pipeline.stats.PipelineStats`:
every node in a :class:`~repro.stream.runtime.StreamGraph` records batch
and row throughput, wall time, watermark-accounting outcomes (late /
NaN-dropped rows), and the event-time lag of finalized output.
``report()`` renders the same style of counter table the chunked pipeline
prints.

:class:`NodeStats` is a :class:`~repro.obs.counters.Counters` record,
bumped lock-free in the runtime's per-batch loop.  Direct attribute
mutation, ``report()``, and ``state_dict()``/``load_state()``
checkpointing have pinned shapes (``tests/obs/test_stats_compat.py``).
"""

from __future__ import annotations

from repro.core.report import render_table
from repro.obs.counters import Counters, CounterTable


class NodeStats(Counters):
    """Counters for one stream node (the source or an operator)."""

    FIELDS = ("batches_in", "batches_out", "rows_in", "rows_out",
              "late_rows", "nan_rows", "wall_s", "lag_sum_s", "lag_n")
    __slots__ = FIELDS

    @property
    def mean_lag_s(self) -> float:
        """Mean event-time lag of finalized output (arrival - window end)."""
        return self.lag_sum_s / self.lag_n if self.lag_n else 0.0


class StreamStats(CounterTable):
    """Per-node counters for one streaming run, keyed by node name."""

    record_type = NodeStats
    node = CounterTable.get

    @property
    def total_late_rows(self) -> int:
        return self.total("late_rows")

    def report(self) -> str:
        """Rendered per-node counter table plus the accounting roll-up."""
        rows = [
            [name, st.batches_in, st.rows_in, st.rows_out, st.late_rows,
             f"{st.mean_lag_s:.2f}" if st.lag_n else "-", f"{st.wall_s:.3f}"]
            for name, st in self.records.items()
        ]
        table = render_table(
            ["node", "batches", "rows in", "rows out", "late", "lag s",
             "seconds"],
            rows,
            title="stream nodes",
        )
        return (f"{table}\nwatermark accounting: {self.total_late_rows} "
                "late rows dropped")
