"""Incremental, single-pass streaming operators.

Each operator consumes :class:`~repro.stream.batch.RecordBatch` objects and
emits finalized results as soon as its watermark allows.  The contract with
the batch analyses in :mod:`repro.core` is exact:

* :class:`StreamingCoarsen` / :class:`StreamingClusterAggregate` share one
  watermark buffer (:class:`_WindowedOperator`): rows of *open* windows
  wait in arrival order, and a closed window goes through the very same
  :func:`~repro.frame.window.window_aggregate` / group-by kernels the batch
  path runs, over the same rows in the same order — so for skew-free input
  the output is bit-identical to :func:`~repro.core.coarsen.coarsen_telemetry`
  and :func:`~repro.core.aggregate.cluster_power_series` (asserted by
  ``tests/stream/test_equivalence.py``).
* :class:`StreamingEdgeDetector` replays the
  :func:`~repro.core.edges.detect_edges` state machine one sample at a time
  (run merging, 80% return scan, truncation at end of stream) with O(open
  edges) state.
* :class:`StreamingPUE` is the elementwise :func:`~repro.core.pue.pue_series`
  plus a rolling-window mean.
* :class:`OnlineSpectral` is an incremental Welch periodogram over the
  differenced series, equal to the batch periodogram of the same samples
  (same segments, same ops).

Records whose window already finalized are **late**: they are dropped and
counted (never silently folded in), which is what lets watermark accounting
explain every sample that a skewed or lossy replay loses.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.config import SUMMIT
from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import finite_rows
from repro.core.edges import edge_table
from repro.core.pue import PUE_OVERHEAD, pue_series
from repro.core.spectral import WELCH_NPERSEG, welch_window
from repro.frame.table import Table, concat
from repro.frame.window import _aggregate_windows, window_index, window_span
from repro.stream.batch import RecordBatch
from repro.stream.watermark import BoundedLatenessWatermark


class Operator:
    """Base class: process batches, flush at end of stream, checkpoint."""

    name: str = "operator"

    def process(self, batch: RecordBatch) -> list[RecordBatch]:
        """Consume one batch; return zero or more finalized output batches."""
        raise NotImplementedError

    def flush(self) -> list[RecordBatch]:
        """Finalize all remaining state at end of stream."""
        return []

    def state_dict(self) -> dict:
        """Checkpointable operator state (plain python + numpy only)."""
        return {}

    def load_state(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict`."""

    def stat_counters(self) -> dict:
        """Accounting counters mirrored into :class:`NodeStats`."""
        return {}


class _WindowedOperator(Operator):
    """The one watermark buffer under both windowed operators.

    Rows wait, append-only and in arrival order, until the watermark's
    window index passes theirs.  Each arrival chunk keeps its window
    indices and their ``(min, max)``: whether anything closes is a scalar
    compare, and a cut moves whole chunks, splitting one only where it
    straddles the bound.  The closed rows and their indices go, in arrival
    order, to :meth:`_kernel`, whose group-by stable-sorts them into the
    archive's ``(*by, window)`` order — so every float reduction sees the
    same values in the same order as the batch path.  Rows whose window
    already closed are **late**: dropped and counted.  Memory is bounded by
    the open windows (width + lateness), never by stream length.  The spans
    are derived: a checkpoint holds the rows alone.
    """

    _COUNTERS = ("late_rows", "nan_rows", "lag_sum_s", "lag_n")

    #: the coarsen window, seconds
    width = SUMMIT.coarsen_window_s

    def __init__(self, by: Sequence[str], lateness_s: float):
        self.by = list(by)
        self.watermark = BoundedLatenessWatermark(lateness_s)
        # open chunks in arrival order: (rows, window indices, (min, max))
        self._rows: list[tuple[Table, np.ndarray, tuple[int, int]]] = []
        self._closed_below = -math.inf  # ratchets with the watermark
        self._last_arrival = float("nan")
        self.late_rows = 0
        self.nan_rows = 0
        self.lag_sum_s = 0.0
        self.lag_n = 0

    def _admit(self, table: Table) -> Table:
        """Check the input's columns; return the rows (and columns) worth
        buffering."""
        raise NotImplementedError

    def _kernel(self, rows: Table, win: np.ndarray, presorted: bool) -> Table:
        """Aggregate closed ``_reads`` columns of window indices ``win``."""
        raise NotImplementedError

    def _buffer(self, rows: Table, win: np.ndarray) -> None:
        self._rows.append((rows, win, (int(win.min()), int(win.max()))))

    def process(self, batch: RecordBatch) -> list[RecordBatch]:
        work = self._admit(batch.table)
        self._last_arrival = batch.arrival_time
        # the watermark advances on everything that arrived, dropped or not
        self.watermark.observe(batch.table["timestamp"])
        if work.n_rows:
            win = window_index(work["timestamp"], self.width)
            if int(win.min()) < self._closed_below:
                keep = win >= self._closed_below
                self.late_rows += len(win) - int(keep.sum())
                work, win = work.filter(keep), win[keep]
            if len(win):
                self._buffer(work, win)
        return self._cut(batch.arrival_time)

    def _cut(self, arrival_time: float, flush: bool = False
             ) -> list[RecordBatch]:
        """Close every buffered window below the watermark's (all of them
        on ``flush``) in one emitted batch."""
        if flush:
            bound = math.inf
        else:
            wm = self.watermark.current
            if not math.isfinite(wm):
                return []
            bound = int(window_index(np.array([wm]), self.width)[0])
            if bound > self._closed_below:
                self._closed_below = bound
        if not any(lo < bound for _, _, (lo, _) in self._rows):
            return []  # nothing buffered, or nothing closes yet
        buffered, self._rows = self._rows, []
        chunks, wins = [], []
        for rows, win, (lo, hi) in buffered:
            if lo >= bound:
                self._rows.append((rows, win, (lo, hi)))
                continue
            reads = rows.select(self._reads)
            if hi >= bound:  # straddles: the open part stays buffered
                closed = win < bound
                self._buffer(rows.filter(~closed), win[~closed])
                reads, win = reads.filter(closed), win[closed]
            chunks.append(reads)
            wins.append(win)
        rows = chunks[0] if len(chunks) == 1 else concat(chunks)
        win = wins[0] if len(wins) == 1 else np.concatenate(wins)
        first, last = int(win.min()), int(win.max())
        out = self._kernel(rows, win, presorted=not self.by and first == last)
        if not flush:
            for k in ([first] if first == last else np.unique(win).tolist()):
                self.lag_sum_s += arrival_time - window_span(
                    k, self.width)[1]
                self.lag_n += 1
        return [RecordBatch(table=out, arrival_time=arrival_time)]

    def flush(self) -> list[RecordBatch]:
        return self._cut(self._last_arrival, flush=True)

    def state_dict(self) -> dict:
        return {
            "rows": (concat([rows for rows, _, _ in self._rows]).as_dict()
                     if self._rows else None),
            "watermark": self.watermark.state_dict(),
            "closed_below": self._closed_below,
            "last_arrival": self._last_arrival,
            **self.stat_counters(),
        }

    def load_state(self, state: dict) -> None:
        self._rows = []
        for rows in [] if state["rows"] is None else [Table(state["rows"])]:
            self._buffer(rows, window_index(rows["timestamp"], self.width))
        self.watermark.load_state(state["watermark"])
        self._closed_below = state["closed_below"]
        self._last_arrival = state["last_arrival"]
        for k in self._COUNTERS:
            setattr(self, k, state[k])

    def stat_counters(self) -> dict:
        return {k: getattr(self, k) for k in self._COUNTERS}


class StreamingCoarsen(_WindowedOperator):
    """Online 10 s coarsening: the streaming counterpart of
    :func:`~repro.core.coarsen.coarsen_telemetry`.

    Rows with a non-finite value are dropped and counted on arrival, by
    the batch path's own :func:`~repro.core.coarsen.finite_rows`; a closed
    window goes through :func:`window_aggregate`'s kernel, producing the
    exact count/min/max/mean/std rows of the batch path, per node.
    """

    name = "coarsen"

    def __init__(self, values: Sequence[str], lateness_s: float = 0.0):
        super().__init__(("node",), lateness_s)
        self.values = list(values)
        self._reads = [*self.by, *self.values]

    def _admit(self, table: Table) -> Table:
        rows, dropped = finite_rows(table, self.values)
        self.nan_rows += dropped
        return rows

    def _kernel(self, rows: Table, win: np.ndarray, presorted: bool) -> Table:
        return _aggregate_windows(rows, win, self.width, self.values,
                                  self.by, presorted)


class StreamingClusterAggregate(_WindowedOperator):
    """Running cluster collapse: the streaming counterpart of
    :func:`~repro.core.aggregate.cluster_power_series`.

    Takes coarsened rows (timestamps are window starts) and allows no
    lateness: a window closes once a later window start has been seen.
    """

    name = "aggregate"

    def __init__(self, value: str = "input_power"):
        super().__init__((), 0.0)
        self.value = value
        self._reads = [f"{value}_mean", f"{value}_max", "timestamp"]

    def _admit(self, table: Table) -> Table:
        # buffer only what the kernel reads
        for c in self._reads:
            if c not in table:
                raise KeyError(f"expected coarsened column {c!r}")
        return table.select(self._reads)

    def _kernel(self, rows: Table, win: np.ndarray, presorted: bool) -> Table:
        return cluster_power_series(rows, self.value, presorted)


class StreamingEdgeDetector(Operator):
    """Single-pass rising/falling edge detection on a power series.

    Replays :func:`~repro.core.edges.detect_edges` incrementally: a *run* of
    consecutive same-direction threshold crossings merges into one edge; the
    edge then stays *pending* while its 80% return scan tracks the running
    peak, and completes (with exact duration) the first sample the return
    target is hit.  At end of stream, pending edges are truncated with
    ``returned=False``, exactly like the batch scan hitting the end of the
    array.  State is O(open edges); snapshots around edges come from the
    batch :func:`~repro.core.edges.extract_snapshot`.
    """

    name = "edges"

    def __init__(self, threshold_w: float, value: str = "sum_inp"):
        self.threshold_w = float(threshold_w)
        self.value = value
        self._idx = 0
        self._prev_t = float("nan")
        self._prev_p = float("nan")
        self._run: dict | None = None
        self._pending: list[dict] = []
        self.edges_found = 0

    # ---------------- per-sample state machine ----------------

    def _finalize_run(self, end_step: int, end_power: float) -> None:
        run = self._run
        self._pending.append({
            "start_index": run["start"],
            "time": run["t_start"],
            "direction": run["sign"],
            "initial_w": run["initial"],
            "amplitude_w": end_power - run["initial"],
            "peak_w": end_power,
            "end_step": end_step,
        })
        self._run = None

    def _scan_pending(self, t: float, p: float, completed: list[dict]) -> None:
        frac = SUMMIT.edge_return_fraction
        still = []
        for e in self._pending:
            if e["direction"] > 0:
                if p > e["peak_w"]:
                    e["peak_w"] = p
                target = e["peak_w"] - frac * (e["peak_w"] - e["initial_w"])
                hit = p <= target
            else:
                if p < e["peak_w"]:
                    e["peak_w"] = p
                target = e["peak_w"] - frac * (e["peak_w"] - e["initial_w"])
                hit = p >= target
            if hit:
                e["duration_s"] = t - e["time"]
                e["returned"] = True
                completed.append(e)
            else:
                still.append(e)
        self._pending = still

    def process(self, batch: RecordBatch) -> list[RecordBatch]:
        work = batch.table
        for c in ("timestamp", self.value):
            if c not in work:
                raise KeyError(f"series lacks column {c!r}")
        times = np.asarray(work["timestamp"], dtype=np.float64)
        power = np.asarray(work[self.value], dtype=np.float64)
        completed: list[dict] = []
        thr = self.threshold_w
        for t, p in zip(times, power):
            t = float(t)
            p = float(p)
            j = self._idx
            if j > 0:
                d = p - self._prev_p
                s = 1 if d > thr else (-1 if d < -thr else 0)
                if self._run is not None and s != self._run["sign"]:
                    # diff j-1 broke the run: crossing steps ended at j-1
                    self._finalize_run(end_step=j - 1, end_power=self._prev_p)
                if s != 0 and self._run is None:
                    self._run = {
                        "sign": s,
                        "start": j - 1,
                        "t_start": self._prev_t,
                        "initial": self._prev_p,
                    }
                self._scan_pending(t, p, completed)
            self._prev_t = t
            self._prev_p = p
            self._idx += 1
        if not completed:
            return []
        self.edges_found += len(completed)
        return [batch.with_table(edge_table(completed))]

    def flush(self) -> list[RecordBatch]:
        if self._idx and self._run is not None:
            # series ended mid-run: the last sample closes the crossing steps
            self._finalize_run(end_step=self._idx - 1, end_power=self._prev_p)
        if not self._pending:
            return []
        truncated = []
        for e in sorted(self._pending, key=lambda e: e["start_index"]):
            e["duration_s"] = self._prev_t - e["time"]
            e["returned"] = False
            truncated.append(e)
        self._pending = []
        self.edges_found += len(truncated)
        return [RecordBatch(table=edge_table(truncated),
                            arrival_time=self._prev_t)]

    # ---------------- checkpointing ----------------

    def state_dict(self) -> dict:
        return {
            "idx": self._idx,
            "prev_t": self._prev_t,
            "prev_p": self._prev_p,
            "run": dict(self._run) if self._run else None,
            "pending": [dict(e) for e in self._pending],
            "edges_found": self.edges_found,
        }

    def load_state(self, state: dict) -> None:
        self._idx = state["idx"]
        self._prev_t = state["prev_t"]
        self._prev_p = state["prev_p"]
        self._run = dict(state["run"]) if state["run"] else None
        self._pending = [dict(e) for e in state["pending"]]
        self.edges_found = state["edges_found"]


#: span of :class:`StreamingPUE`'s trailing ``pue_roll`` mean, seconds
PUE_ROLLING_S = 600.0


class StreamingPUE(Operator):
    """Rolling PUE over a streamed cluster series.

    The instantaneous column is the elementwise
    :func:`~repro.core.pue.pue_series` with a
    :data:`~repro.core.pue.PUE_OVERHEAD` fraction of IT power as overhead
    (bit-identical to batch); the ``pue_roll`` column is a trailing
    :data:`PUE_ROLLING_S`-second mean maintained from a bounded buffer of
    recent samples.
    """

    name = "pue"

    def __init__(self, it: str = "sum_inp"):
        self.it = it
        self._roll_t: list[float] = []
        self._roll_v: list[float] = []

    def process(self, batch: RecordBatch) -> list[RecordBatch]:
        work = batch.table
        for c in (self.it, "timestamp"):
            if c not in work:
                raise KeyError(f"series lacks column {c!r}")
        it = np.asarray(work[self.it], dtype=np.float64)
        times = np.asarray(work["timestamp"], dtype=np.float64)
        pue = pue_series(it, PUE_OVERHEAD * it)
        roll = np.empty(len(pue))
        for i, (t, v) in enumerate(zip(times, pue)):
            self._roll_t.append(float(t))
            self._roll_v.append(float(v))
            while self._roll_t and self._roll_t[0] < t - PUE_ROLLING_S:
                self._roll_t.pop(0)
                self._roll_v.pop(0)
            roll[i] = sum(self._roll_v) / len(self._roll_v)
        out = work.with_columns({"pue": pue, "pue_roll": roll})
        return [batch.with_table(out)]

    def state_dict(self) -> dict:
        return {
            "roll_t": list(self._roll_t),
            "roll_v": list(self._roll_v),
        }

    def load_state(self, state: dict) -> None:
        self._roll_t = list(state["roll_t"])
        self._roll_v = list(state["roll_v"])


class OnlineSpectral(Operator):
    """Incremental Welch periodogram of a differenced power stream.

    The streaming counterpart of the paper's differenced-FFT
    characterization (:mod:`repro.core.spectral`): samples are differenced
    on arrival, collected into :data:`~repro.core.spectral.WELCH_NPERSEG`-
    sample segments advancing by half a segment, and each full segment's
    Hann-windowed periodogram is accumulated.
    The running estimate equals the batch Welch average over the same
    differenced samples exactly (same segments, same ops).
    """

    name = "spectral"

    nperseg = WELCH_NPERSEG
    hop = WELCH_NPERSEG // 2

    def __init__(self, dt: float, value: str = "sum_inp"):
        self.dt = float(dt)
        self.value = value
        self._win = welch_window(self.nperseg)
        self._wss = float(np.sum(self._win * self._win))
        self._prev: float | None = None
        self._seg = np.zeros(self.nperseg)
        self._filled = 0
        self._psd_sum = np.zeros(self.nperseg // 2 + 1)
        self.n_segments = 0

    def process(self, batch: RecordBatch) -> list[RecordBatch]:
        work = batch.table
        if self.value not in work:
            raise KeyError(f"series lacks column {self.value!r}")
        for v in np.asarray(work[self.value], dtype=np.float64):
            v = float(v)
            if self._prev is not None:
                self._push(v - self._prev)
            self._prev = v
        return []

    def _push(self, d: float) -> None:
        self._seg[self._filled] = d
        self._filled += 1
        if self._filled == self.nperseg:
            spec = np.fft.rfft(self._seg * self._win)
            self._psd_sum += (spec.real * spec.real
                              + spec.imag * spec.imag) / self._wss
            self.n_segments += 1
            keep = self.nperseg - self.hop
            self._seg[:keep] = self._seg[self.hop:].copy()
            self._filled = keep

    # ---------------- estimates ----------------

    def freqs(self) -> np.ndarray:
        return np.fft.rfftfreq(self.nperseg, d=self.dt)

    def periodogram(self) -> np.ndarray:
        """Running Welch average (zeros before the first full segment)."""
        if self.n_segments == 0:
            return np.zeros_like(self._psd_sum)
        return self._psd_sum / self.n_segments

    def dominant_mode(self) -> tuple[float, float]:
        """(frequency_hz, psd) of the strongest non-DC bin so far."""
        if self.n_segments == 0:
            return (float("nan"), float("nan"))
        psd = self.periodogram()
        k = 1 + int(np.argmax(psd[1:]))
        return (float(self.freqs()[k]), float(psd[k]))

    def flush(self) -> list[RecordBatch]:
        freq, power = self.dominant_mode()
        out = Table({
            "fft_freq_hz": np.array([freq]),
            "fft_psd": np.array([power]),
            "n_segments": np.array([self.n_segments], dtype=np.int64),
        })
        return [RecordBatch(table=out, arrival_time=float("nan"))]

    def state_dict(self) -> dict:
        return {
            "prev": self._prev,
            "seg": self._seg.copy(),
            "filled": self._filled,
            "psd_sum": self._psd_sum.copy(),
            "n_segments": self.n_segments,
        }

    def load_state(self, state: dict) -> None:
        self._prev = state["prev"]
        self._seg = state["seg"].copy()
        self._filled = state["filled"]
        self._psd_sum = state["psd_sum"].copy()
        self.n_segments = state["n_segments"]
