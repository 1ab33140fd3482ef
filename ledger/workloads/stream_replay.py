"""``stream_replay``: the streaming engine on replayed telemetry.

The same ``frame.window`` / ``groupby`` kernels as the batch path, but in
~360-row batches: per-batch Python overhead, not data volume, sets the
rate.  Storage and serve do nothing here, so their optimisations must read
"no change".  A block is one skew-free and one skewed replay of the same
table through coarsen -> cluster aggregate -> {edges, PUE}; only
``graph.run()`` is timed, in equal slices of the batch sequence.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.obs import span
from repro.stream import (StreamGraph, StreamingClusterAggregate,
                          StreamingCoarsen, StreamingEdgeDetector,
                          StreamingPUE, TelemetryReplaySource)

from ledger.layers import per, storage_metrics
from ledger.workloads import Workload, timed, twin_telemetry

LATENESS_S = 8.0
RUN = "stream.runtime:run"
#: slots per replay: ``graph.run(max_batches=...)`` pumps the stream in
#: this many equal slices, each timed on its own
SLICES = 20


class StreamReplay(Workload):
    name = "stream_replay"

    def build(self, r: int) -> None:
        nodes, seconds = (24, 600.0) if self.quick else (72, 5400.0)
        _, self.telemetry = twin_telemetry(self, nodes, seconds,
                                           per_gpu=False)
        with self.step("reference"):
            self.rows = self.telemetry.n_rows
            self.units = (float(self.rows), float(self.rows))
            self.batch_series = self._one_shot()
            steps = np.abs(np.diff(self.batch_series["sum_inp"]))
            self.threshold_w = float(np.quantile(steps[steps > 0], 0.8))
        self.batches = 0
        self.late_rows = 0
        self.finalize_lag_s = 0.0

    def _one_shot(self):
        return cluster_power_series(coarsen_telemetry(
            self.telemetry.sort("timestamp"), ["input_power"]
        ))

    def _operators(self, skew: bool):
        """(name, operator, upstream) of the graph, in build order."""
        return [
            ("coarsen", StreamingCoarsen(
                ["input_power"], lateness_s=LATENESS_S if skew else 0.0),
             None),
            ("aggregate", StreamingClusterAggregate(), "coarsen"),
            ("edges", StreamingEdgeDetector(self.threshold_w), "aggregate"),
            ("pue", StreamingPUE(it="sum_inp"), "aggregate"),
        ]

    def _graph(self, skew: bool, operators=None) -> StreamGraph:
        with span("stream.source:init"):
            source = TelemetryReplaySource(
                self.telemetry, skew=skew, seed=self.seed
            )
        graph = StreamGraph(source)
        for name, op, upstream in operators or self._operators(skew):
            graph.add(op, after=upstream, collect=name in ("aggregate",
                                                           "edges"))
        return graph

    def _replay(self, skew: bool) -> tuple[StreamGraph, list[float]]:
        """One replay, pumped in :data:`SLICES` timed slices (the last
        one also flushes)."""
        graph = self._graph(skew)
        per_slice = -(-graph.source.n_batches // SLICES)
        slots = []
        for i in range(SLICES):
            last = i == SLICES - 1
            with span(RUN, skew=skew):
                seconds, _ = timed(graph.run,
                                   None if last else per_slice)
            slots.append(seconds)
        return graph, slots

    def block(self, k: int) -> tuple[list[float], list[float]]:
        free, free_slots = self._replay(skew=False)
        skewed, skewed_slots = self._replay(skew=True)
        with span("ledger:checks"):
            self.op(free.result("aggregate") == self.batch_series,
                    "skew-free stream result != batch series")
            self.op(free.stats.total_late_rows == 0,
                    "skew-free replay dropped late rows")
            self.op(skewed.stats.total_late_rows == 0,
                    "skewed replay dropped late rows")
            self.batches = free.source.batches_emitted
            self.late_rows = (free.stats.total_late_rows
                              + skewed.stats.total_late_rows)
            self.finalize_lag_s = skewed.stats.node("aggregate").mean_lag_s
        return free_slots, skewed_slots

    def probe(self, record) -> None:
        """Source and operator costs outside the runtime: drain a fresh
        source, and feed each operator the batches it received during one
        recorded skew-free replay (each the faster of two goes)."""
        def drain(source) -> int:
            n = 0
            while source.next_batch() is not None:
                n += 1
            return n

        self.source_s, self.source_batches = min(
            timed(drain, TelemetryReplaySource(self.telemetry, skew=False,
                                               seed=self.seed))
            for _ in range(2))

        received: dict[str, list] = {}
        live = self._operators(skew=False)
        for name, op, _ in live:
            received[name] = []
            op.process = _recording(op.process, received[name])
        self._graph(skew=False, operators=live).run()
        self.operator_batches = {k: len(v) for k, v in received.items()}

        def feed(op, batches) -> None:
            for batch in batches:
                op.process(batch)

        self.operator_s = {
            name: min(
                timed(feed, self._operators(skew=False)[i][1],
                      received[name])[0]
                for _ in range(2))
            for i, name in enumerate(received)
        }
        self.one_shot_s = min(timed(self._one_shot)[0] for _ in range(3))
        # the same replay through the runtime, untraced like the rest
        self.run_s = min(sum(self._replay(skew=False)[1]) for _ in range(2))

    def layer_metrics(self, spans) -> dict[str, float]:
        outside = self.source_s + sum(self.operator_s.values())
        out = {
            **storage_metrics(spans),  # the kernels the operators call
            "stream.source.batch_us":
                per(self.source_s, self.source_batches, 1e6),
            "stream.source.batches": float(self.batches),
            "stream.runtime.overhead_share":
                1.0 - outside / self.run_s,
            "stream.runtime.late_rows": float(self.late_rows),
            "stream.runtime.finalize_lag_s": self.finalize_lag_s,
            "stream.batch_ratio": self.one_shot_s / self.run_s,
        }
        for name, seconds in self.operator_s.items():
            out[f"stream.operators.{name}_us_per_batch"] = per(
                seconds, self.operator_batches[name], 1e6)
        return out


def _recording(process, seen: list):
    def recorded(batch):
        seen.append(batch)
        return process(batch)

    return recorded
