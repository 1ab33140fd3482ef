"""Runtime mechanics: scheduling and checkpoint/restore.

The headline guarantee: a stream paused mid-run, checkpointed, and resumed
into a freshly built graph finishes with exactly the outputs of an
uninterrupted run — operators, source cursor and counters all survive the
round trip — and a checkpoint resumed into anything but the graph and the
replay it was taken from is refused, by name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.frame.table import Table, concat
from repro.stream import (
    Operator,
    RecordBatch,
    StreamGraph,
    StreamingClusterAggregate,
    StreamingCoarsen,
    StreamingEdgeDetector,
    StreamingPUE,
    TelemetryReplaySource,
)

COLLECTED = ("coarsen", "aggregate", "pue", "edges")


def build_graph(telemetry, threshold_w, skew=True):
    source = TelemetryReplaySource(telemetry, skew=skew, seed=5)
    graph = StreamGraph(source)
    graph.add(StreamingCoarsen(["input_power"], lateness_s=3.0), collect=True)
    graph.add(StreamingClusterAggregate(), after="coarsen", collect=True)
    graph.add(StreamingEdgeDetector(threshold_w), after="aggregate",
              collect=True)
    graph.add(StreamingPUE(it="sum_inp"), after="aggregate", collect=True)
    return graph


def results(graph) -> dict[str, Table | None]:
    return {name: graph.result(name) for name in COLLECTED}


def merged(first, second) -> dict[str, Table | None]:
    out = {}
    for name in COLLECTED:
        parts = [t for t in (first[name], second[name]) if t is not None]
        out[name] = concat(parts) if parts else None
    return out


class TestCheckpointRestore:
    @pytest.mark.parametrize("pause_after", [1, 37, 120])
    def test_resume_equals_uninterrupted(self, telemetry, edge_threshold,
                                         pause_after):
        straight = build_graph(telemetry, edge_threshold)
        straight.run()
        reference = results(straight)

        half = build_graph(telemetry, edge_threshold)
        half.run(max_batches=pause_after)
        assert not half.source.exhausted
        state = half.state_dict()
        before = results(half)

        resumed = build_graph(telemetry, edge_threshold)
        resumed.load_state(state)
        resumed.run()
        combined = merged(before, results(resumed))

        for name in COLLECTED:
            if reference[name] is None:
                assert combined[name] is None
            else:
                assert combined[name] == reference[name], name
        # counters survive too: total late rows match the straight run
        assert (resumed.stats.total_late_rows
                == straight.stats.total_late_rows)

    def test_checkpoint_file_roundtrip(self, telemetry, edge_threshold,
                                       tmp_path):
        path = tmp_path / "stream.ckpt"
        half = build_graph(telemetry, edge_threshold)
        half.run(max_batches=40)
        half.save_checkpoint(path)
        before = results(half)

        straight = build_graph(telemetry, edge_threshold)
        straight.run()

        resumed = build_graph(telemetry, edge_threshold)
        resumed.load_checkpoint(path)
        resumed.run()
        combined = merged(before, results(resumed))
        assert combined["aggregate"] == straight.result("aggregate")

    def test_load_rejects_topology_mismatch(self, telemetry, edge_threshold):
        half = build_graph(telemetry, edge_threshold)
        half.run(max_batches=5)
        state = half.state_dict()

        other = StreamGraph(TelemetryReplaySource(telemetry, seed=5))
        other.add(StreamingCoarsen(["input_power"]))
        with pytest.raises(ValueError, match="topology"):
            other.load_state(state)


class TestCheckpointMismatch:
    """A checkpoint laid over another stream is refused, never resumed."""

    @pytest.fixture()
    def state(self, telemetry, edge_threshold):
        half = build_graph(telemetry, edge_threshold)
        half.run(max_batches=5)
        return half.state_dict()

    @staticmethod
    def graph_over(source, edge_threshold, extra=False, without=None):
        graph = StreamGraph(source)
        graph.add(StreamingCoarsen(["input_power"], lateness_s=3.0))
        graph.add(StreamingClusterAggregate(), after="coarsen")
        if without != "edges":
            graph.add(StreamingEdgeDetector(edge_threshold),
                      after="aggregate")
        graph.add(StreamingPUE(it="sum_inp"), after="aggregate")
        if extra:  # a second PUE node: "pue2"
            graph.add(StreamingPUE(it="sum_inp"), after="aggregate")
        return graph

    @pytest.mark.parametrize("field, kwargs, rows", [
        ("seed", dict(seed=9), None),
        ("skew", dict(seed=5, skew=False), None),
        ("batch_interval_s", dict(seed=5, batch_interval_s=2.0), None),
        ("rows_total", dict(seed=5), 3000),
    ])
    def test_other_replay_refused_by_field(self, telemetry, edge_threshold,
                                           state, field, kwargs, rows):
        source = TelemetryReplaySource(
            telemetry if rows is None else telemetry[:rows], **kwargs)
        graph = self.graph_over(source, edge_threshold)
        with pytest.raises(ValueError, match=f"with {field} .*this one has"):
            graph.load_state(state)
        # refused before anything moved
        assert source.batches_emitted == 0
        assert graph.stats.records == {}

    def test_other_batch_count_refused(self, telemetry, edge_threshold,
                                       state):
        # same settings, same row count, other rows: the flush ticks differ
        t = telemetry["timestamp"]
        shifted = telemetry.with_column("timestamp", t + (t > 600.0) * 40.0)
        source = TelemetryReplaySource(shifted, seed=5)
        assert source.rows_total == state["source"]["rows_total"]
        with pytest.raises(ValueError, match="with n_batches "):
            self.graph_over(source, edge_threshold).load_state(state)

    def test_extra_node_refused(self, telemetry, edge_threshold, state):
        graph = self.graph_over(TelemetryReplaySource(telemetry, seed=5),
                                edge_threshold, extra=True)
        with pytest.raises(ValueError, match=r"topology.*\['pue2'\]"):
            graph.load_state(state)

    def test_missing_node_refused(self, telemetry, edge_threshold, state):
        graph = self.graph_over(TelemetryReplaySource(telemetry, seed=5),
                                edge_threshold, without="edges")
        with pytest.raises(ValueError, match=r"topology.*\['edges'\]"):
            graph.load_state(state)

    def test_unstamped_checkpoint_refused(self, telemetry, edge_threshold,
                                          state):
        # what the queue-era runtime wrote: no stamp, per-node queue/outbox
        old = {
            "source": {k: state["source"][k]
                       for k in ("pos", "rows_emitted", "batches_emitted")},
            "nodes": {name: {"op": {"buffers": {}}, "queue": [], "outbox": []}
                      for name in state["nodes"]},
            "stats": state["stats"],
            "flushed": False,
        }
        graph = build_graph(telemetry, edge_threshold)
        with pytest.raises(ValueError, match="format"):
            graph.load_state(old)

    def test_matching_graph_still_loads(self, telemetry, edge_threshold,
                                        state):
        graph = self.graph_over(TelemetryReplaySource(telemetry, seed=5),
                                edge_threshold)
        graph.load_state(state)
        assert graph.source.batches_emitted == 5


class _Amplifier(Operator):
    """Test operator: one input batch -> ``factor`` copies downstream."""

    name = "amplifier"

    def __init__(self, factor: int):
        self.factor = factor

    def process(self, batch):
        return [batch.with_table(batch.table) for _ in range(self.factor)]


class _Counter(Operator):
    name = "counter"

    def __init__(self):
        self.rows = 0
        self.arrivals = []

    def process(self, batch):
        self.rows += batch.n_rows
        self.arrivals.append(batch.arrival_time)
        return []


class TestGraphMechanics:
    def test_many_outputs_per_input_nothing_lost(self, telemetry):
        source = TelemetryReplaySource(telemetry[:2000], skew=False, seed=5)
        graph = StreamGraph(source)
        graph.add(_Amplifier(factor=5))
        counter = _Counter()
        graph.add(counter, after="amplifier")
        graph.run()
        assert counter.rows == source.rows_emitted * 5
        # delivered in the order the source emitted them, five at a time
        assert counter.arrivals == sorted(counter.arrivals)
        assert len(counter.arrivals) == source.batches_emitted * 5

    def test_run_without_operators_fails(self, telemetry):
        graph = StreamGraph(TelemetryReplaySource(telemetry[:100], seed=5))
        with pytest.raises(RuntimeError, match="no operators"):
            graph.run()

    def test_unknown_upstream_rejected(self, telemetry):
        graph = StreamGraph(TelemetryReplaySource(telemetry[:100], seed=5))
        graph.add(StreamingCoarsen(["input_power"]))
        with pytest.raises(KeyError, match="upstream"):
            graph.add(StreamingPUE(), after="nope")

    def test_duplicate_names_get_suffixed(self, telemetry):
        graph = StreamGraph(TelemetryReplaySource(telemetry[:100], seed=5))
        first = graph.add(StreamingCoarsen(["input_power"]))
        second = graph.add(StreamingCoarsen(["input_power"]), after=first)
        assert first == "coarsen"
        assert second == "coarsen2"
        assert list(graph.state_dict()["nodes"]) == ["coarsen", "coarsen2"]

    def test_fan_out_delivers_to_both_children(self, telemetry):
        source = TelemetryReplaySource(telemetry[:3000], skew=False, seed=5)
        graph = StreamGraph(source)
        graph.add(StreamingCoarsen(["input_power"]))
        graph.add(StreamingClusterAggregate(), after="coarsen")
        a = _Counter()
        b = _Counter()
        assert graph.add(a, after="aggregate") != graph.add(
            b, after="aggregate")
        graph.run()
        assert a.rows == b.rows > 0

    def test_result_none_for_silent_node(self, telemetry):
        source = TelemetryReplaySource(telemetry[:50], skew=False, seed=5)
        graph = StreamGraph(source)
        # threshold so high nothing ever crosses
        graph.add(StreamingCoarsen(["input_power"]), collect=False)
        graph.add(StreamingClusterAggregate(), after="coarsen",
                  collect=False)
        graph.add(StreamingEdgeDetector(1e15), after="aggregate")
        graph.run()
        assert graph.result("edges") is None
