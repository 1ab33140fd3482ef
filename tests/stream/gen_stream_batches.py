"""Generator of ``tests/golden/stream_batches.json``: every batch the
standard stream graph emits, pinned.

24 configurations on one seeded 30-node x 15 min twin — arrival skew on/off
x ``lateness_s`` 0/3/8 x {no loss, one ``scope="all"`` and one
``scope="power"`` loss event} x {straight run, paused at batch 77 with the
checkpoint pickled and resumed into a fresh graph}.  Per node, per emitted
batch: the first 16 hex digits of a SHA-256 over column names, dtypes and
bytes, the batch's ``arrival_time`` and its row count; per node, every
counter that is not a wall clock.  A resumed run has to emit exactly what
the straight one does, so the file holds 12 entries and both runs are
compared against each.  Where the existing tests compare final tables, this
pins emission boundaries, arrival stamps, which rows were late and what a
resumed graph emits.

    PYTHONPATH=src python tests/stream/gen_stream_batches.py          # rewrite
    PYTHONPATH=src python tests/stream/gen_stream_batches.py --check  # diff

``--checkpoint`` writes ``tests/golden/stream_checkpoint_v2.pkl`` instead:
the graph state of one configuration (:data:`CHECKPOINT_CONFIG`) pickled
after batch 77.  The committed file was written by the runtime whose
windowed buffer held its open rows as one table, before it kept per-chunk
window spans; ``test_batch_golden.py`` resumes it on the current tree and
expects the golden's batches.  Rewrite it only when the checkpoint format
changes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pickle
import sys
from pathlib import Path

import numpy as np

from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.datasets import SimulationSpec, simulate_twin
from repro.stream import (
    StreamGraph,
    StreamingClusterAggregate,
    StreamingCoarsen,
    StreamingEdgeDetector,
    StreamingPUE,
    TelemetryReplaySource,
)
from repro.telemetry.collector import LossEvent

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "stream_batches.json"
CHECKPOINT = GOLDEN.with_name("stream_checkpoint_v2.pkl")

NODES = ("coarsen", "aggregate", "edges", "pue")
COUNTERS = ("batches_in", "batches_out", "rows_in", "rows_out",
            "late_rows", "nan_rows", "lag_sum_s", "lag_n")
PAUSE_AFTER = 77
#: (skew, lateness_s, loss) of the committed checkpoint: late rows and
#: NaN-blanked rows on both sides of the pause
CHECKPOINT_CONFIG = (True, 3.0, True)
LOSS = (
    LossEvent(t_begin=200.0, t_end=260.0, nodes=(3, 4, 5, 17), scope="all"),
    LossEvent(t_begin=500.0, t_end=540.0, scope="power"),
)


def twin_telemetry():
    twin = simulate_twin(SimulationSpec(
        n_nodes=30, n_jobs=300, horizon_s=3600.0, seed=22))
    return twin.sampler().sample(twin.builder.build(0.0, 900.0, 1.0))


def edge_threshold(telemetry) -> float:
    series = cluster_power_series(
        coarsen_telemetry(telemetry.sort("timestamp"), ["input_power"]))
    steps = np.abs(np.diff(series["sum_inp"]))
    return float(np.quantile(steps[steps > 0], 0.7))


def build_graph(telemetry, threshold_w, skew, lateness_s, loss) -> StreamGraph:
    source = TelemetryReplaySource(
        telemetry, skew=skew, seed=5, loss_events=LOSS if loss else ())
    graph = StreamGraph(source)
    graph.add(StreamingCoarsen(["input_power"], lateness_s=lateness_s),
              collect=True)
    graph.add(StreamingClusterAggregate(), after="coarsen", collect=True)
    graph.add(StreamingEdgeDetector(threshold_w), after="aggregate",
              collect=True)
    graph.add(StreamingPUE(it="sum_inp"), after="aggregate", collect=True)
    return graph


def batch_entry(batch) -> list:
    h = hashlib.sha256()
    for name in batch.table.columns:
        col = np.ascontiguousarray(batch.table[name])
        h.update(f"{name}:{col.dtype.str}:".encode())
        h.update(col.tobytes())
    return [h.hexdigest()[:16], batch.arrival_time, batch.n_rows]


def summarize(graphs) -> dict:
    """Emitted batches of ``graphs`` in run order (a resumed run is two
    graphs) and the counters the last one ends with."""
    last = graphs[-1]
    return {
        name: {
            "batches": [batch_entry(b) for g in graphs
                        for b in g.collected.get(name, [])],
            "counters": {k: getattr(last.stats.node(name), k)
                         for k in COUNTERS},
        }
        for name in NODES
    }


def config_key(skew, lateness_s, loss) -> str:
    return f"skew={int(skew)} lateness={lateness_s:g} loss={int(loss)}"


def compute(resume: bool) -> dict:
    """Summary per configuration, run straight or paused and resumed."""
    telemetry = twin_telemetry()
    threshold_w = edge_threshold(telemetry)
    out = {}
    for skew, lateness_s, loss in itertools.product(
            (False, True), (0.0, 3.0, 8.0), (False, True)):
        args = (telemetry, threshold_w, skew, lateness_s, loss)
        first = build_graph(*args)
        if resume:
            first.run(max_batches=PAUSE_AFTER)
            state = pickle.loads(pickle.dumps(first.state_dict()))
            second = build_graph(*args)
            second.load_state(state)
            second.run()
            graphs = [first, second]
        else:
            first.run()
            graphs = [first]
        out[config_key(skew, lateness_s, loss)] = summarize(graphs)
    return out


def dumps(golden: dict) -> str:
    lines = []
    for key, nodes in golden.items():
        body = ",\n".join(
            f'  {json.dumps(name)}: {json.dumps(node, separators=(",", ":"))}'
            for name, node in nodes.items())
        lines.append(f"{json.dumps(key)}: {{\n{body}\n}}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def paused_graph(telemetry, threshold_w) -> StreamGraph:
    """The :data:`CHECKPOINT_CONFIG` graph, run for its first
    :data:`PAUSE_AFTER` batches."""
    graph = build_graph(telemetry, threshold_w, *CHECKPOINT_CONFIG)
    graph.run(max_batches=PAUSE_AFTER)
    return graph


def main(argv) -> int:
    if "--checkpoint" in argv:
        telemetry = twin_telemetry()
        state = paused_graph(telemetry, edge_threshold(telemetry)).state_dict()
        CHECKPOINT.write_bytes(pickle.dumps(state, protocol=4))
        print(f"wrote {CHECKPOINT}")
        return 0
    golden = compute(resume=False)
    if compute(resume=True) != golden:
        print("a resumed run emits other batches than a straight one")
        return 1
    text = dumps(golden)
    if "--check" in argv:
        if GOLDEN.read_text() != text:
            print(f"{GOLDEN} differs from what this tree emits")
            return 1
        print(f"{GOLDEN} matches")
        return 0
    GOLDEN.write_text(text)
    print(f"wrote {GOLDEN} ({len(text):,} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
