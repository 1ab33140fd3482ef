"""Distribution statistics: KDE, quantiles, boxplots (Figures 5-9).

Thin, tested wrappers over scipy/numpy so every figure's statistical
machinery lives in one place with consistent NaN handling.
"""

from __future__ import annotations

import numpy as np


def _clean(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).ravel()
    return v[np.isfinite(v)]


def quantiles(values: np.ndarray) -> np.ndarray:
    """The 20/50/80 % quantiles (NaN-safe)."""
    qs = (0.2, 0.5, 0.8)
    v = _clean(values)
    if len(v) == 0:
        return np.full(len(qs), np.nan)
    return np.quantile(v, qs)


def boxplot_stats(values: np.ndarray) -> dict[str, float]:
    """Matplotlib-style boxplot statistics with the 1.5 IQR whisker rule.

    Returns q1/median/q3, whisker lo/hi (most extreme non-outlier points),
    outlier count, and the non-outlier spread (whisker_hi - whisker_lo, the
    quantity the paper quotes for Figure 17: 62 W power / 15.8 degC temp).
    """
    v = _clean(values)
    if len(v) == 0:
        return {k: float("nan") for k in (
            "q1", "median", "q3", "whisker_lo", "whisker_hi",
            "n_outliers", "spread", "mean", "n",
        )}
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    iqr = q3 - q1
    lo_lim, hi_lim = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inliers = v[(v >= lo_lim) & (v <= hi_lim)]
    w_lo = float(inliers.min()) if len(inliers) else float("nan")
    w_hi = float(inliers.max()) if len(inliers) else float("nan")
    return {
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "whisker_lo": w_lo,
        "whisker_hi": w_hi,
        "n_outliers": float(len(v) - len(inliers)),
        "spread": w_hi - w_lo,
        "mean": float(v.mean()),
        "n": float(len(v)),
    }


def kde_2d(
    x: np.ndarray,
    y: np.ndarray,
    n_grid: int = 64,
    log_x: bool = False,
    log_y: bool = False,
) -> dict[str, np.ndarray]:
    """2-D Gaussian KDE (the Figure 6/9 joint densities).

    Returns ``{"x": grid_x, "y": grid_y, "density": (n, n)}``; with
    ``log_*`` the KDE runs in log10 space (energy/power span decades).
    """
    from scipy import stats

    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    ok = np.isfinite(x) & np.isfinite(y)
    if log_x:
        ok &= x > 0
    if log_y:
        ok &= y > 0
    x, y = x[ok], y[ok]
    if len(x) < 3:
        g = np.linspace(0, 1, n_grid)
        return {"x": g, "y": g, "density": np.zeros((n_grid, n_grid))}
    tx = np.log10(x) if log_x else x
    ty = np.log10(y) if log_y else y
    if np.ptp(tx) == 0 or np.ptp(ty) == 0:
        gx = np.linspace(tx.min() - 1, tx.max() + 1, n_grid)
        gy = np.linspace(ty.min() - 1, ty.max() + 1, n_grid)
        return {"x": gx, "y": gy, "density": np.zeros((n_grid, n_grid))}
    kde = stats.gaussian_kde(np.vstack([tx, ty]))
    px = 0.05 * np.ptp(tx)
    py = 0.05 * np.ptp(ty)
    gx = np.linspace(tx.min() - px, tx.max() + px, n_grid)
    gy = np.linspace(ty.min() - py, ty.max() + py, n_grid)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    dens = kde(np.vstack([mx.ravel(), my.ravel()])).reshape(n_grid, n_grid)
    return {"x": gx, "y": gy, "density": dens}


def modality_count_2d(density: np.ndarray) -> int:
    """Number of local maxima of a 2-D KDE field above 5 % of its peak —
    Figure 6's "several high-density regions" made countable.

    A cell is a mode if it is >= all 8 neighbours and above the threshold.
    """
    d = np.asarray(density, dtype=np.float64)
    if d.size == 0 or d.max() <= 0:
        return 0
    pad = np.pad(d, 1, constant_values=-np.inf)
    core = pad[1:-1, 1:-1]
    is_max = np.ones_like(d, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            is_max &= core >= pad[1 + dx: d.shape[0] + 1 + dx,
                                  1 + dy: d.shape[1] + 1 + dy]
    return int(((d > 0.05 * d.max()) & is_max).sum())
