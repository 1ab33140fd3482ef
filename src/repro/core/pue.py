"""PUE series and the Figure 5 weekly summaries."""

from __future__ import annotations

import numpy as np

from repro.core.density import boxplot_stats
from repro.frame.table import Table

SECONDS_PER_WEEK = 7 * 86_400.0

#: facility overhead as a fraction of IT power: the memoryless stand-in for
#: the central plant that a PUE query and the streaming PUE both apply
PUE_OVERHEAD = 0.1


def pue_series(it_power_w: np.ndarray, overhead_w: np.ndarray) -> np.ndarray:
    """PUE = (IT + overhead) / IT, elementwise."""
    it = np.asarray(it_power_w, dtype=np.float64)
    return (it + np.asarray(overhead_w, dtype=np.float64)) / np.maximum(it, 1.0)


def weekly_summary(
    times: np.ndarray,
    values: np.ndarray,
    extra_max: np.ndarray | None = None,
) -> Table:
    """Per-week boxplot statistics of a year-long series (Figure 5 rows).

    Columns: ``week``, the :func:`~repro.core.density.boxplot_stats` fields,
    and optionally ``week_max_extra`` — the per-week maximum of a second
    series (Figure 5 also plots the weekly maximum cluster power).
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    week = np.floor(times / SECONDS_PER_WEEK).astype(np.int64)
    uniq = np.unique(week)
    rows: dict[str, list[float]] = {
        "week": [], "q1": [], "median": [], "q3": [],
        "whisker_lo": [], "whisker_hi": [], "mean": [], "n": [],
    }
    extra: list[float] = []
    for w in uniq:
        sel = week == w
        st = boxplot_stats(values[sel])
        rows["week"].append(float(w))
        for k in ("q1", "median", "q3", "whisker_lo", "whisker_hi", "mean", "n"):
            rows[k].append(st[k])
        if extra_max is not None:
            ev = np.asarray(extra_max, dtype=np.float64)[sel]
            ev = ev[np.isfinite(ev)]
            extra.append(float(ev.max()) if len(ev) else float("nan"))
    out = {k: np.array(v) for k, v in rows.items()}
    out["week"] = out["week"].astype(np.int64)
    if extra_max is not None:
        out["week_max_extra"] = np.array(extra)
    return Table(out)
