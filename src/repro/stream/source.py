"""Replay twin telemetry as a live stream through the modeled fan-in path.

:class:`TelemetryReplaySource` turns an archived telemetry table (what
:class:`~repro.telemetry.collector.TelemetrySampler` produces) back into
the record stream the point of analysis would have seen:

* each row is assigned an **arrival time** = event time + a per-payload
  propagation delay drawn from the per-hop budget in
  :mod:`repro.telemetry.ingest` (BMC jitter + websocket fan-in batching +
  aggregation stamping + analysis hop, mean ~4.1 s) — so records arrive
  out of event-time order exactly as far as the hop delays skew them;
* rows are delivered in arrival order, grouped into flush batches every
  ``batch_interval_s`` of arrival time (the service-node websocket flush);
* :class:`~repro.telemetry.collector.LossEvent`s puncture the replay —
  ``scope="all"`` rows never arrive (counted as ``loss_dropped``), other
  scopes blank their fields to NaN (counted as ``loss_blanked``).

``skew=False`` collapses every hop delay to zero: arrival == event time,
records in event-time order — the mode the bit-identical equivalence tests
run in.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.frame.table import Table
from repro.stream.batch import RecordBatch
from repro.telemetry.collector import LossEvent, apply_loss
from repro.telemetry.ingest import sample_propagation_delays


class TelemetryReplaySource:
    """Replay a telemetry table as timestamped record batches.

    The replay is deterministic given ``(telemetry, seed)``: restoring a
    checkpoint into a source built from the same inputs resumes the exact
    same batch sequence.
    """

    def __init__(
        self,
        telemetry: Table,
        *,
        batch_interval_s: float = 5.0,
        skew: bool = True,
        seed: int = 0,
        loss_events: Sequence[LossEvent] = (),
    ):
        if "timestamp" not in telemetry:
            raise KeyError("telemetry lacks event-time column 'timestamp'")
        if not batch_interval_s > 0:  # NaN too
            raise ValueError(
                f"batch_interval_s must be positive, got {batch_interval_s}"
            )
        self.batch_interval_s = float(batch_interval_s)
        self.skew = bool(skew)
        self.seed = int(seed)
        self.rows_total = telemetry.n_rows
        work, self.loss_dropped, self.loss_blanked = apply_loss(
            telemetry, loss_events,
            np.asarray(telemetry["timestamp"], dtype=np.float64),
        )
        event = np.asarray(work["timestamp"], dtype=np.float64)
        if self.skew:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, 0x57EA])
            )
            delays = sample_propagation_delays(rng, len(event))
        else:
            delays = np.zeros(len(event))
        arrival = event + delays
        order = np.argsort(arrival, kind="stable")
        self._table = work.take(order)
        self._arrival = arrival[order]
        self._flush_bounds = self._flush_slices()
        self._pos = 0
        self.rows_emitted = 0
        self.batches_emitted = 0

    # ---------------- construction helpers ----------------

    def _flush_slices(self) -> list[tuple[int, int, float]]:
        """``(start_row, end_row, flush_time)`` per non-empty flush tick."""
        if len(self._arrival) == 0:
            return []
        width = self.batch_interval_s
        tick = np.floor(self._arrival / width).astype(np.int64)
        bounds = np.flatnonzero(np.diff(tick)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(tick)]])
        return [
            (int(s), int(e), float((tick[s] + 1) * width))
            for s, e in zip(starts, ends)
        ]

    # ---------------- stream protocol ----------------

    @property
    def table(self) -> Table:
        """All surviving rows in arrival order (read-only view)."""
        return self._table

    @property
    def arrival_times(self) -> np.ndarray:
        """Arrival time of each row of :attr:`table` (sorted ascending)."""
        return self._arrival

    @property
    def n_batches(self) -> int:
        return len(self._flush_bounds)

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._flush_bounds)

    def next_batch(self) -> RecordBatch | None:
        """The next flush batch in arrival order, or None at end of stream."""
        if self.exhausted:
            return None
        s, e, flush_t = self._flush_bounds[self._pos]
        self._pos += 1
        batch = RecordBatch(table=self._table[s:e], arrival_time=flush_t)
        self.rows_emitted += batch.n_rows
        self.batches_emitted += 1
        return batch

    # ---------------- checkpointing ----------------

    #: what makes two replays the same batch sequence, as far as a
    #: checkpoint can tell: the settings first, then what they produced
    _IDENTITY = ("seed", "skew", "batch_interval_s", "rows_total", "n_batches")

    def state_dict(self) -> dict:
        return {
            **{k: getattr(self, k) for k in self._IDENTITY},
            "pos": self._pos,
            "rows_emitted": self.rows_emitted,
            "batches_emitted": self.batches_emitted,
        }

    def load_state(self, state: dict) -> None:
        """Move the cursor to a checkpointed position — of this replay:
        a checkpoint taken from another one is a ``ValueError``."""
        for k in self._IDENTITY:
            if state[k] != getattr(self, k):
                raise ValueError(
                    f"checkpoint was taken from a replay with {k} "
                    f"{state[k]}, this one has {k} {getattr(self, k)}"
                )
        self._pos = int(state["pos"])
        self.rows_emitted = int(state["rows_emitted"])
        self.batches_emitted = int(state["batches_emitted"])
