"""Cross-correlation lag estimation (Section 5's "roughly one minute").

The paper eyeballs the delay between an IT-power edge and the cooling
plant's tons-of-refrigeration response from superimposed snapshots; this
module measures it: the lag maximizing the normalized cross-correlation of
the differenced series.
"""

from __future__ import annotations

import numpy as np


def estimate_lag_s(
    driver: np.ndarray,
    response: np.ndarray,
    dt: float,
    max_lag_s: float,
) -> tuple[float, float]:
    """Lag (seconds) at which ``response`` best tracks ``driver``.

    Positive lag means the response *follows* the driver.  Both series are
    first-differenced (power/tonnage are strongly trending, and it is the
    transition timing the question is about).

    Returns ``(lag_s, peak_correlation)``; ``(nan, nan)`` when either
    series is too short or constant.
    """
    x = np.asarray(driver, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("driver and response must have equal length")
    x = np.diff(x)
    y = np.diff(y)
    n = len(x)
    max_k = int(round(max_lag_s / dt))
    if n < 4 or max_k < 1 or x.std() == 0 or y.std() == 0:
        return (float("nan"), float("nan"))

    x = (x - x.mean()) / x.std()
    y = (y - y.mean()) / y.std()

    best_corr = -np.inf
    best_lag = 0
    for k in range(0, min(max_k, n - 2) + 1):
        # response shifted back by k: y[k:] vs x[:n-k]
        a = x[: n - k]
        b = y[k:]
        if a.std() == 0 or b.std() == 0:
            continue
        c = float(np.mean(a * b))
        if c > best_corr:
            best_corr = c
            best_lag = k
    if not np.isfinite(best_corr):
        return (float("nan"), float("nan"))
    return (best_lag * dt, best_corr)
