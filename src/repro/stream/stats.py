"""Per-node counters for the streaming runtime.

The streaming analogue of :class:`~repro.pipeline.stats.PipelineStats`:
every node in a :class:`~repro.stream.runtime.StreamGraph` records batch
and row throughput, wall time, watermark-accounting outcomes (late /
NaN-dropped rows), and the event-time lag of finalized output.
``report()`` renders the same style of counter table the chunked pipeline
prints.

Backed by a :class:`~repro.obs.metrics.MetricsRegistry` (one per
:class:`StreamStats`): :class:`NodeStats` attributes are views over
registry counters labeled by node name.  Direct attribute mutation,
``report()``, and ``state_dict()``/``load_state()`` checkpointing have
pinned shapes (``tests/obs/test_stats_compat.py``).
"""

from __future__ import annotations

from repro.core.report import render_table
from repro.obs.metrics import MetricField, MetricsRegistry


class NodeStats:
    """Counters for one stream node (the source or an operator): each
    attribute is a view of the registry metric
    ``stream.<attr>{node=<name>}``."""

    FIELDS = ("batches_in", "batches_out", "rows_in", "rows_out",
              "late_rows", "nan_rows", "wall_s", "lag_sum_s", "lag_n")

    batches_in = MetricField()
    batches_out = MetricField()
    rows_in = MetricField()
    rows_out = MetricField()
    late_rows = MetricField()
    nan_rows = MetricField()
    wall_s = MetricField()
    lag_sum_s = MetricField()
    lag_n = MetricField()

    def __init__(self, name: str, registry: MetricsRegistry | None = None):
        self.name = name
        self._registry = registry if registry is not None else MetricsRegistry()

    def _metric(self, attr: str):
        return self._registry.counter(f"stream.{attr}", node=self.name)

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
        self.registry = MetricsRegistry()
        self.nodes: dict[str, NodeStats] = {}

    def node(self, name: str) -> NodeStats:
        """The (auto-created) stats record for ``name``."""
        st = self.nodes.get(name)
        if st is None:
            st = self.nodes[name] = NodeStats(name, self.registry)
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
