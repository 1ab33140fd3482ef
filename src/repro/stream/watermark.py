"""Watermarks: bounded-lateness progress tracking for event-time windows.

The fan-in path stamps payloads up to ~6.5 s after the BMC emitted them
(:mod:`repro.telemetry.ingest`), so records reach the point of analysis out
of event-time order.  A watermark asserts "no record with event time below
W will arrive anymore"; windows ending at or before W can finalize.  With
``lateness_s`` at least the path's maximum skew the assertion holds exactly
and nothing is ever late; a smaller bound trades completeness for lag, and
every record that loses that trade is counted, not silently folded in.
"""

from __future__ import annotations

import math

import numpy as np


class BoundedLatenessWatermark:
    """Watermark = (maximum event time observed) - ``lateness_s``.

    The classic bounded-out-of-orderness heuristic: as long as arrival
    skew never exceeds ``lateness_s``, no on-time record is below the
    watermark when it arrives.
    """

    __slots__ = ("lateness_s", "_max_event")

    def __init__(self, lateness_s: float = 0.0):
        if not lateness_s >= 0:  # NaN too
            raise ValueError(f"lateness_s must be >= 0, got {lateness_s}")
        self.lateness_s = float(lateness_s)
        self._max_event = -math.inf

    @property
    def current(self) -> float:
        """The current watermark (``-inf`` before any record)."""
        return self._max_event - self.lateness_s

    def observe(self, event_times: np.ndarray) -> float:
        """Advance on a batch of event times; returns the new watermark."""
        t = np.asarray(event_times, dtype=np.float64)
        if t.size:
            m = float(t.max())
            if m > self._max_event:
                self._max_event = m
        return self.current

    # ---------------- checkpointing ----------------

    def state_dict(self) -> dict:
        return {"lateness_s": self.lateness_s, "max_event": self._max_event}

    def load_state(self, state: dict) -> None:
        self.lateness_s = float(state["lateness_s"])
        self._max_event = float(state["max_event"])
