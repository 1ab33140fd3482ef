"""Fixed-width time-window aggregation (the paper's 10-second coarsening).

Section 3 of the paper: 1 Hz per-node samples are coarsened to 10-second
windows, keeping count/min/max/mean/std per window so that downstream
cluster-level summation loses no envelope information.  This module provides
the generic windowed group-by those datasets are built with.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.frame.groupby import group_by
from repro.frame.table import Table

#: Statistics stored per window (Dataset 0 of the artifact appendix).
DEFAULT_STATS = ("count", "min", "max", "mean", "std")


def window_index(
    times: np.ndarray, width: float, origin: float = 0.0
) -> np.ndarray:
    """Index of the window ``[origin + k*width, origin + (k+1)*width)``
    containing each timestamp.

    Timestamps exactly on a window edge are guaranteed to land in the
    window *starting* there, consistent with :func:`window_span`'s
    half-open arithmetic: when ``times``, ``width`` and ``origin`` are all
    integral the index is computed with exact int64 floor division, and
    otherwise the float division is post-corrected against the span
    boundaries (``floor((t - origin)/width)`` alone can mis-bin an
    edge timestamp by one ulp of rounding).
    """
    if width <= 0:
        raise ValueError("window width must be positive")
    t = np.asarray(times, dtype=np.float64)
    width = float(width)
    origin = float(origin)
    # the exact path needs both as int64 (a width of 1e308 is not)
    if width.is_integer() and origin.is_integer() and max(
        abs(width), abs(origin)
    ) < 2.0**63:
        with np.errstate(invalid="ignore"):
            ti = t.astype(np.int64)
        if np.array_equal(ti, t):  # all integral, within int64 range
            return (ti - int(origin)) // int(width)
    k = np.floor((t - origin) / width).astype(np.int64)
    # FP boundary guard: force span(k)[0] <= t < span(k)[1] in the exact
    # arithmetic window_span uses (NaN timestamps compare False: untouched)
    k = np.where(t < origin + k.astype(np.float64) * width, k - 1, k)
    k = np.where(t >= origin + (k + 1).astype(np.float64) * width, k + 1, k)
    return k


def window_span(
    index: int, width: float, origin: float = 0.0
) -> tuple[float, float]:
    """``(start, end)`` of window ``index`` — inverse of :func:`window_index`
    (the same arithmetic that rebuilds the ``out_time`` column, so streaming
    finalization timestamps match batch output exactly).

    ``end`` is computed as window ``index + 1``'s start — not
    ``start + width`` — so consecutive spans tile the time axis with no
    FP gap and the half-open invariant ``start <= t < end`` holds for
    every timestamp :func:`window_index` bins to ``index``."""
    start = float(index) * width + origin
    return (start, float(index + 1) * width + origin)


def window_aggregate(
    table: Table,
    *,
    time: str,
    width: float,
    values: Sequence[str],
    stats: Sequence[str] = DEFAULT_STATS,
    by: Sequence[str] = (),
    origin: float = 0.0,
    out_time: str = "timestamp",
    presorted: bool | None = None,
) -> Table:
    """Aggregate ``values`` over fixed windows of ``width`` seconds.

    Output has one row per (``by`` group, window), a window-start ``out_time``
    column, and per value column ``{col}_{stat}`` columns (plus a single
    shared ``count`` column if ``"count"`` is requested).

    Empty windows simply do not appear (matching the telemetry semantics:
    BMCs only push on change, the archive stores what arrived).

    ``presorted=True`` declares the rows already ordered by
    ``(*by, window index)`` — rows time-ordered within each ``by`` group is
    sufficient — unlocking the run-length group-by kernel (no factorize, no
    argsort).  ``None`` (default) probes for that order in O(n); ``False``
    skips the run-length path.  All three produce bit-identical output.
    With ``by=()`` key factorization is skipped entirely either way: the
    window column alone needs at most one stable argsort.
    """
    missing = [c for c in (time, *values, *by) if c not in table]
    if missing:
        raise KeyError(f"columns not in table: {missing}")
    win = window_index(table[time], width, origin)
    work = table.select(list(by) + list(values)).with_column("_win", win)

    aggs: dict[str, tuple[str, str] | str] = {}
    for stat in stats:
        if stat == "count":
            aggs["count"] = "count"
            continue
        for col in values:
            aggs[f"{col}_{stat}"] = (col, stat)

    grouped = group_by(work, list(by) + ["_win"], aggs, presorted=presorted)
    times = grouped["_win"].astype(np.float64) * width + origin
    return grouped.drop(["_win"]).with_column(out_time, times)

