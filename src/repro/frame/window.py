"""Fixed-width time-window aggregation (the paper's 10-second coarsening).

Section 3 of the paper: 1 Hz per-node samples are coarsened to 10-second
windows, keeping count/min/max/mean/std per window so that downstream
cluster-level summation loses no envelope information.  This module provides
the generic windowed group-by those datasets are built with.  The grid is
epoch-aligned: window ``k`` is ``[k*width, (k+1)*width)``.

:func:`window_index` bins up to eight finite stamps (``|t|`` < 2**52) in
Python scalars, op for op the array path's IEEE-754 double and exact integer
arithmetic, so the same bits; anything else takes the array path.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.frame.groupby import group_by
from repro.frame.table import Table

#: Statistics stored per window (Dataset 0 of the artifact appendix).
DEFAULT_STATS = ("count", "min", "max", "mean", "std")

_TINY = 8  # stamps :func:`_tiny_window_index` takes


def _tiny_window_index(ts: list[float], width: float) -> list[int] | None:
    """:func:`window_index` in Python scalars; None: the array path decides."""
    if not all(abs(x) < 2.0**52 for x in ts):
        return None  # NaN, ±inf or beyond the exact-integer doubles
    if (width.is_integer() and width < 2.0**63
            and all(x.is_integer() for x in ts)):
        return [int(x) // int(width) for x in ts]
    out = []
    for x in ts:
        q = x / width
        if not abs(q) < 2.0**62:
            return None  # the array path's int64 cast decides
        k = math.floor(q)
        k -= x < float(k) * width
        k += x >= float(k + 1) * width
        out.append(k)
    return out


def window_index(times: np.ndarray, width: float) -> np.ndarray:
    """Index of the window ``[k*width, (k+1)*width)`` containing each
    timestamp.

    Timestamps exactly on a window edge are guaranteed to land in the
    window *starting* there, consistent with :func:`window_span`'s
    half-open arithmetic: when ``times`` and ``width`` are all integral
    the index is computed with exact int64 floor division, and otherwise
    the float division is post-corrected against the span boundaries
    (``floor(t/width)`` alone can mis-bin an edge timestamp by one ulp of
    rounding).
    """
    if width <= 0:
        raise ValueError("window width must be positive")
    t = np.asarray(times, dtype=np.float64)
    width = float(width)
    k = (_tiny_window_index(t.ravel().tolist(), width)
         if t.size <= _TINY else None)
    if k is not None:
        return np.array(k, dtype=np.int64).reshape(t.shape)
    # the exact path needs an int64 width (1e308 is not), integral stamps
    if width.is_integer() and width < 2.0**63 and (
        t.size == 0 or float(t.flat[0]).is_integer()
    ):
        with np.errstate(invalid="ignore"):
            ti = t.astype(np.int64)
        if (ti == t).all():  # all integral, within int64 range
            return ti // int(width)
    k = np.floor(t / width).astype(np.int64)
    # FP boundary guard: force span(k)[0] <= t < span(k)[1] in the exact
    # arithmetic window_span uses (NaN timestamps compare False: untouched)
    k = np.where(t < k.astype(np.float64) * width, k - 1, k)
    k = np.where(t >= (k + 1).astype(np.float64) * width, k + 1, k)
    return k


def window_span(index: int, width: float) -> tuple[float, float]:
    """``(start, end)`` of window ``index`` — inverse of :func:`window_index`
    (the same arithmetic that rebuilds the window-start column, so
    streaming finalization timestamps match batch output exactly).

    ``end`` is computed as window ``index + 1``'s start — not
    ``start + width`` — so consecutive spans tile the time axis with no
    FP gap and the half-open invariant ``start <= t < end`` holds for
    every timestamp :func:`window_index` bins to ``index``."""
    return (float(index) * width, float(index + 1) * width)


def window_aggregate(
    table: Table,
    *,
    time: str,
    width: float,
    values: Sequence[str],
    by: Sequence[str] = (),
) -> Table:
    """Aggregate ``values`` over fixed windows of ``width`` seconds.

    Output has one row per (``by`` group, window), a window-start
    ``timestamp`` column, a shared ``count`` column, and per value column
    the ``{col}_{stat}`` columns of the other :data:`DEFAULT_STATS`.

    Empty windows simply do not appear (matching the telemetry semantics:
    BMCs only push on change, the archive stores what arrived).

    Rows already ordered by ``(*by, window index)`` — rows time-ordered
    within each ``by`` group is sufficient — are found by an O(n) probe and
    take the run-length group-by kernel (no factorize, no argsort); the
    output is bit-identical either way.  With ``by=()`` key factorization
    is skipped entirely: the window column alone needs at most one stable
    argsort.
    """
    missing = [c for c in (time, *values, *by) if c not in table]
    if missing:
        raise KeyError(f"columns not in table: {missing}")
    return _aggregate_windows(table, window_index(table[time], width), width,
                              values, by, None)


def _aggregate_windows(table: Table, win: np.ndarray, width: float,
                       values: Sequence[str], by: Sequence[str],
                       presorted: bool | None) -> Table:
    """:func:`window_aggregate` given each row's window index ``win``;
    ``presorted`` as :func:`~repro.frame.groupby.group_by` takes it."""
    cols = {c: table[c] for c in (*by, *values)}
    cols["_win"] = win
    aggs: dict[str, tuple[str, str] | str] = {"count": "count"}
    for stat in DEFAULT_STATS[1:]:
        for col in values:
            aggs[f"{col}_{stat}"] = (col, stat)

    out = group_by(Table(cols), [*by, "_win"], aggs,
                   presorted=presorted).as_dict()
    out["timestamp"] = out.pop("_win").astype(np.float64) * width
    return Table(out)
