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
from repro.frame.window import window_aggregate, DEFAULT_STATS


def coarsen_telemetry(
    telemetry: Table,
    values: Sequence[str],
    width: float = SUMMIT.coarsen_window_s,
    by: Sequence[str] = ("node",),
    time: str = "timestamp",
    drop_nan: bool = True,
    presorted: bool | None = None,
) -> Table:
    """Per-node windowed statistics of raw telemetry.

    ``drop_nan`` removes rows where any requested value is NaN *before*
    windowing (the telemetry path blanks lost sensors to NaN; the real
    pipeline simply never received those payloads).  Window ``count``
    therefore reflects the samples that actually arrived.

    ``presorted=True`` declares the telemetry time-ordered within each
    ``by`` group (the archived layout: node-major, time ascending), which
    routes the windowed group-by through the run-length kernel — no
    factorize, no argsort; the default ``None`` probes for that order in
    O(n).  Either way the output is bit-identical to the generic kernel.
    """
    missing = [c for c in values if c not in telemetry]
    if missing:
        raise KeyError(f"telemetry lacks columns {missing}")
    work = telemetry
    if drop_nan:
        ok = np.ones(work.n_rows, dtype=bool)
        for c in values:
            col = work[c]
            if col.dtype.kind == "f":
                ok &= np.isfinite(col)
        if not ok.all():
            work = work.filter(ok)  # order-preserving: sortedness survives
    return window_aggregate(
        work,
        time=time,
        width=width,
        values=list(values),
        stats=DEFAULT_STATS,
        by=list(by),
        presorted=presorted,
    )
