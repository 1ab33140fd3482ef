"""Plain-text rendering of tables, series, and histograms.

Every benchmark prints its figure/table through these helpers so the output
reads like the paper's artifact: aligned rows, SI-scaled units, and compact
ASCII sparklines for time-series shapes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_BLOCKS = " ▁▂▃▄▅▆▇█"


def fmt_si(value: float, unit: str = "") -> str:
    """Format with SI prefix to three digits: 5_500_000 W -> '5.50 MW'."""
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return "nan"
    v = float(value)
    for factor, prefix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(v) >= factor:
            return f"{v / factor:.2f} {prefix}{unit}".rstrip()
    return f"{v:.2f} {unit}".rstrip()


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Aligned monospace table."""
    srows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in srows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(c: object) -> str:
    if isinstance(c, float) or isinstance(c, np.floating):
        if not np.isfinite(c):
            return "nan"
        if abs(c) >= 1000 or (abs(c) < 0.01 and c != 0):
            return f"{c:.3g}"
        return f"{c:.3f}".rstrip("0").rstrip(".")
    return str(c)


def sparkline(values: np.ndarray, width: int = 60) -> str:
    """ASCII sparkline of a series (NaNs render as spaces)."""
    v = np.asarray(values, dtype=np.float64)
    if len(v) == 0:
        return ""
    if len(v) > width:
        # mean-pool to the target width
        edges = np.linspace(0, len(v), width + 1).astype(int)
        pooled = np.array([
            np.nanmean(v[a:b]) if b > a and np.isfinite(v[a:b]).any() else np.nan
            for a, b in zip(edges[:-1], edges[1:])
        ])
        v = pooled
    finite = v[np.isfinite(v)]
    if len(finite) == 0:
        return " " * len(v)
    lo, hi = finite.min(), finite.max()
    span = hi - lo if hi > lo else 1.0
    out = []
    for x in v:
        if not np.isfinite(x):
            out.append(" ")
        else:
            idx = int((x - lo) / span * (len(_BLOCKS) - 2)) + 1
            out.append(_BLOCKS[idx])
    return "".join(out)


def render_series(name: str, values: np.ndarray, unit: str = "") -> str:
    """One labeled sparkline row with min/mean/max annotations."""
    v = np.asarray(values, dtype=np.float64)
    finite = v[np.isfinite(v)]
    if len(finite) == 0:
        return f"{name:28s} (no data)"
    return (
        f"{name:28s} {sparkline(v)} "
        f"[{fmt_si(float(finite.min()), unit)} .. "
        f"{fmt_si(float(finite.max()), unit)}; "
        f"mean {fmt_si(float(finite.mean()), unit)}]"
    )


def render_hist(
    labels: Sequence[object],
    counts: Sequence[float],
    width: int = 40,
    title: str | None = None,
) -> str:
    """Horizontal bar chart."""
    counts = np.asarray(counts, dtype=np.float64)
    peak = counts.max() if len(counts) and counts.max() > 0 else 1.0
    lw = max((len(str(l)) for l in labels), default=1)
    lines = [title] if title else []
    for lab, c in zip(labels, counts):
        bar = "#" * int(round(c / peak * width))
        lines.append(f"{str(lab).rjust(lw)} | {bar} {_cell(float(c))}")
    return "\n".join(lines)


def render_cdf_quantiles(name: str, values: np.ndarray, unit: str = "") -> str:
    """One-line CDF summary: the 20/50/80/95/100 % quantiles of a sample."""
    v = np.asarray(values, dtype=np.float64)
    v = v[np.isfinite(v)]
    if len(v) == 0:
        return f"{name:28s} (no data)"
    parts = [
        f"p{int(q * 100):02d}={fmt_si(float(np.quantile(v, q)), unit)}"
        for q in (0.2, 0.5, 0.8, 0.95, 1.0)
    ]
    return f"{name:28s} n={len(v):<7d} " + "  ".join(parts)


_SHADES = " .:-=+*#%@"


def render_grid(
    grid: np.ndarray,
    title: str | None = None,
    missing_mask: np.ndarray | None = None,
) -> str:
    """ASCII heatmap of a 2-D field (the Figure 17 cabinet view), with a
    scale legend.

    NaN cells render as space (no cabinet / not in job); cells flagged in
    ``missing_mask`` render as ``G`` (the paper's bright-green
    lost-telemetry cabinet).
    """
    g = np.asarray(grid, dtype=np.float64)
    finite = g[np.isfinite(g)]
    lines = [title] if title else []
    if len(finite) == 0:
        lines.append("(no data)")
        return "\n".join(lines)
    lo, hi = float(finite.min()), float(finite.max())
    span = hi - lo if hi > lo else 1.0
    for r in range(g.shape[0]):
        row_chars = []
        for c in range(g.shape[1]):
            if missing_mask is not None and missing_mask[r, c]:
                row_chars.append("G")
            elif not np.isfinite(g[r, c]):
                row_chars.append(" ")
            else:
                idx = int((g[r, c] - lo) / span * (len(_SHADES) - 1))
                row_chars.append(_SHADES[idx])
        lines.append("|" + "".join(row_chars) + "|")
    lines.append(
        f"scale: '{_SHADES[0]}'={_cell(lo)} .. '{_SHADES[-1]}'={_cell(hi)}"
        + ("; 'G'=missing" if missing_mask is not None else "")
    )
    return "\n".join(lines)
