"""Streaming == batch, bit for bit, on skew-free loss-free input.

The acceptance bar of the streaming subsystem: replaying telemetry with
zero path skew through the full stream graph must reproduce the batch
analyses exactly — not approximately — because the operators finalize
windows through the very same kernels over the same rows in the same
order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.edges import detect_edges
from repro.core.pue import pue_series
from repro.core.spectral import WELCH_NPERSEG, welch_window
from repro.frame.table import Table
from repro.stream import (
    OnlineSpectral,
    RecordBatch,
    StreamGraph,
    StreamingClusterAggregate,
    StreamingCoarsen,
    StreamingEdgeDetector,
    StreamingPUE,
    TelemetryReplaySource,
)


def build_graph(telemetry, threshold_w, lateness_s=0.0, skew=False,
                seed=5, loss_events=()):
    source = TelemetryReplaySource(
        telemetry, skew=skew, seed=seed, loss_events=loss_events
    )
    graph = StreamGraph(source)
    graph.add(StreamingCoarsen(["input_power"], lateness_s=lateness_s),
              collect=True)
    graph.add(StreamingClusterAggregate(), after="coarsen", collect=True)
    graph.add(StreamingEdgeDetector(threshold_w), after="aggregate")
    graph.add(StreamingPUE(it="sum_inp"), after="aggregate")
    return graph


@pytest.fixture(scope="module")
def run_graph(telemetry, edge_threshold):
    graph = build_graph(telemetry, edge_threshold)
    graph.run()
    return graph


class TestBitIdentical:
    def test_nothing_late_nothing_stalled(self, run_graph):
        assert run_graph.stats.total_late_rows == 0
        assert run_graph.source.loss_dropped == 0

    def test_coarsen_matches_batch(self, run_graph, batch_coarse):
        streamed = run_graph.result("coarsen")
        key = ["node", "timestamp"]
        assert streamed.sort(key) == batch_coarse.sort(key)

    def test_cluster_series_matches_batch(self, run_graph, batch_series):
        # emission order is already globally timestamp-ascending
        assert run_graph.result("aggregate") == batch_series

    def test_pue_matches_batch(self, run_graph, batch_series):
        streamed = run_graph.result("pue")
        it = batch_series["sum_inp"]
        expected = pue_series(it, 0.1 * it)
        assert np.array_equal(streamed["pue"], expected)
        # rolling column is a plain trailing mean of the instantaneous one
        assert np.isfinite(streamed["pue_roll"]).all()

    def test_edges_match_batch(self, run_graph, batch_series, edge_threshold):
        batch = detect_edges(
            batch_series["timestamp"], batch_series["sum_inp"], edge_threshold
        )
        assert batch.n_rows > 0, "fixture should produce edges"
        streamed = run_graph.result("edges")
        assert streamed is not None
        assert streamed.sort("start_index") == batch.sort("start_index")


class TestEdgeDetectorUnit:
    """Operator-level equivalence on synthetic series under odd batching."""

    def _series(self, seed, n=400):
        rng = np.random.default_rng(seed)
        power = np.cumsum(rng.normal(0.0, 1.0, n))
        jumps = rng.choice(n - 2, size=12, replace=False) + 1
        for j in jumps[:6]:
            power[j:] += 25.0  # sustained up-steps
        for j in jumps[6:]:
            power[j:] -= 25.0  # sustained down-steps
        times = np.arange(n, dtype=np.float64) * 10.0
        return times, power

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("chunks", [1, 7, 64])
    def test_matches_detect_edges(self, seed, chunks):
        times, power = self._series(seed)
        threshold = 8.0
        batch = detect_edges(times, power, threshold)
        op = StreamingEdgeDetector(threshold, value="power")
        out = []
        for s in range(0, len(times), chunks):
            t = Table({"timestamp": times[s:s + chunks],
                       "power": power[s:s + chunks]})
            out.extend(op.process(RecordBatch(table=t, arrival_time=0.0)))
        out.extend(op.flush())
        assert out, "synthetic series should produce edges"
        from repro.frame.table import concat

        streamed = concat([b.table for b in out]).sort("start_index")
        assert streamed == batch.sort("start_index")
        assert op.edges_found == batch.n_rows

    def test_truncated_edge_not_returned(self):
        # a big step right at the end never returns: batch and stream agree
        times = np.arange(6, dtype=np.float64)
        power = np.array([0.0, 0.0, 0.0, 0.0, 50.0, 50.0])
        batch = detect_edges(times, power, 10.0)
        op = StreamingEdgeDetector(10.0, value="power")
        out = op.process(RecordBatch(
            table=Table({"timestamp": times, "power": power}),
            arrival_time=0.0,
        ))
        out.extend(op.flush())
        streamed = out[0].table
        assert streamed == batch
        assert bool(streamed["returned"][0]) is False


def welch_psd(x: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Batch reference for :class:`OnlineSpectral`: the averaged
    periodogram of ``x`` over ``WELCH_NPERSEG``-sample segments.

    Segments start at ``0, hop, 2*hop, ...`` (``hop`` half a segment)
    while they fit entirely inside ``x`` (trailing partial segments are
    ignored); each is Hann-tapered and its ``|rfft|^2 / sum(w^2)``
    accumulated.  Returns ``(freqs, psd, n_segments)``.
    """
    x = np.asarray(x, dtype=np.float64)
    nperseg = WELCH_NPERSEG
    hop = nperseg // 2
    win = welch_window(nperseg)
    wss = float(np.sum(win * win))
    freqs = np.fft.rfftfreq(nperseg, d=dt)
    psd_sum = np.zeros(nperseg // 2 + 1)
    n_segments = 0
    start = 0
    while start + nperseg <= len(x):
        spec = np.fft.rfft(x[start:start + nperseg] * win)
        psd_sum += (spec.real * spec.real + spec.imag * spec.imag) / wss
        n_segments += 1
        start += hop
    psd = psd_sum / n_segments if n_segments else psd_sum
    return (freqs, psd, n_segments)


class TestOnlineSpectral:
    @pytest.mark.parametrize("chunks", [5, 32, 999])
    def test_matches_welch_psd(self, batch_series, chunks):
        power = np.asarray(batch_series["sum_inp"], dtype=np.float64)
        op = OnlineSpectral(dt=10.0, value="sum_inp")
        for s in range(0, len(power), chunks):
            t = Table({"sum_inp": power[s:s + chunks]})
            op.process(RecordBatch(table=t, arrival_time=0.0))
        freqs, psd, n_seg = welch_psd(np.diff(power), dt=10.0)
        assert n_seg > 1
        assert op.n_segments == n_seg
        assert np.array_equal(op.freqs(), freqs)
        assert np.array_equal(op.periodogram(), psd)

    def test_dominant_mode_before_any_segment(self):
        op = OnlineSpectral(dt=1.0)
        f, p = op.dominant_mode()
        assert np.isnan(f) and np.isnan(p)

    def test_checkpoint_roundtrip(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=300)
        one = OnlineSpectral(dt=1.0, value="v")
        one.process(RecordBatch(table=Table({"v": x}), arrival_time=0.0))

        a = OnlineSpectral(dt=1.0, value="v")
        a.process(RecordBatch(table=Table({"v": x[:143]}), arrival_time=0.0))
        b = OnlineSpectral(dt=1.0, value="v")
        b.load_state(a.state_dict())
        b.process(RecordBatch(table=Table({"v": x[143:]}), arrival_time=0.0))
        assert b.n_segments == one.n_segments
        assert np.array_equal(b.periodogram(), one.periodogram())
