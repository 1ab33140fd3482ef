"""Per-node counters for the streaming runtime.

The streaming analogue of :class:`~repro.pipeline.stats.PipelineStats`:
every node in a :class:`~repro.stream.runtime.StreamGraph` records batch
and row throughput, wall time, watermark-accounting outcomes (late /
NaN-dropped rows), and the event-time lag of finalized output.
``report()`` renders the same style of counter table the chunked pipeline
prints.

:class:`NodeStats` holds its counters as plain attributes, bumped in the
runtime's per-batch loop.  Direct attribute mutation, ``report()``, and
``state_dict()``/``load_state()`` checkpointing have pinned shapes
(``tests/obs/test_stats_compat.py``).
"""

from __future__ import annotations

from repro.core.report import render_table


class NodeStats:
    """Counters for one stream node (the source or an operator)."""

    FIELDS = ("batches_in", "batches_out", "rows_in", "rows_out",
              "late_rows", "nan_rows", "wall_s", "lag_sum_s", "lag_n")
    __slots__ = ("name",) + FIELDS

    def __init__(self, name: str):
        self.name = name
        for k in self.FIELDS:
            setattr(self, k, 0)

    @property
    def mean_lag_s(self) -> float:
        """Mean event-time lag of finalized output (arrival - window end)."""
        return self.lag_sum_s / self.lag_n if self.lag_n else 0.0

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.FIELDS)
        return f"NodeStats(name={self.name!r}, {fields})"


class StreamStats:
    """Aggregated per-node counters for one streaming run."""

    def __init__(self):
        self.nodes: dict[str, NodeStats] = {}

    def node(self, name: str) -> NodeStats:
        """The (auto-created) stats record for ``name``."""
        st = self.nodes.get(name)
        if st is None:
            st = self.nodes[name] = NodeStats(name)
        return st

    # ---------------- roll-ups ----------------

    @property
    def total_late_rows(self) -> int:
        return sum(s.late_rows for s in self.nodes.values())

    def report(self) -> str:
        """Rendered per-node counter table plus the accounting roll-up."""
        rows = []
        for st in self.nodes.values():
            rows.append([
                st.name,
                st.batches_in,
                st.rows_in,
                st.rows_out,
                st.late_rows,
                f"{st.mean_lag_s:.2f}" if st.lag_n else "-",
                f"{st.wall_s:.3f}",
            ])
        table = render_table(
            ["node", "batches", "rows in", "rows out", "late", "lag s",
             "seconds"],
            rows,
            title="stream nodes",
        )
        return (f"{table}\nwatermark accounting: {self.total_late_rows} "
                "late rows dropped")

    # ---------------- checkpointing ----------------

    def state_dict(self) -> dict:
        return {
            name: {k: getattr(st, k) for k in NodeStats.FIELDS}
            for name, st in self.nodes.items()
        }

    def load_state(self, state: dict) -> None:
        for name, counters in state.items():
            st = self.node(name)
            for k, v in counters.items():
                setattr(st, k, v)
