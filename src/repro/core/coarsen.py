"""10-second coarsening of 1 Hz telemetry (Section 3, Dataset 0).

The paper's error-management strategy: 1 Hz instantaneous samples carry
sampling noise and a 0-5 s timestamping delay, so every analysis first
coarsens to 10-second windows keeping count/min/max/mean/std — the windowed
mean suppresses the sampling noise by ~sqrt(10) while min/max preserve the
envelope.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import SUMMIT
from repro.frame.table import Table
from repro.frame.window import window_aggregate


def finite_rows(telemetry: Table, values: Sequence[str]) -> tuple[Table, int]:
    """``(rows, dropped)``: the rows of ``telemetry`` whose every float
    ``values`` column is finite, in their order, and how many went.

    Raises ``KeyError`` naming the ``values``, ``node`` or ``timestamp``
    columns ``telemetry`` lacks.
    """
    missing = [c for c in ("timestamp", *values, "node")
               if c not in telemetry]
    if missing:
        raise KeyError(f"telemetry lacks columns {missing}")
    ok = np.ones(telemetry.n_rows, dtype=bool)
    for c in values:
        col = telemetry[c]
        if col.dtype.kind == "f":
            ok &= np.isfinite(col)
    if ok.all():
        return telemetry, 0
    return telemetry.filter(ok), int((~ok).sum())


def coarsen_telemetry(
    telemetry: Table,
    values: Sequence[str],
    width: float = SUMMIT.coarsen_window_s,
) -> Table:
    """Per-node windowed statistics of raw telemetry.

    Rows where any requested value is NaN are dropped *before* windowing
    (the telemetry path blanks lost sensors to NaN; the real pipeline
    simply never received those payloads).  Window ``count`` therefore
    reflects the samples that actually arrived.  The windowed group-by
    probes, in O(n), for the archived layout (node-major, time ascending)
    and takes the run-length kernel when it holds — bit-identical to the
    generic kernel either way.
    """
    work, _ = finite_rows(telemetry, values)  # order-preserving
    return window_aggregate(
        work,
        time="timestamp",
        width=width,
        values=list(values),
        by=["node"],
    )
