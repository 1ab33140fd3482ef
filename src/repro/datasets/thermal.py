"""Thermal time-series datasets (artifact Datasets 8-11).

The MTW operations room (Figure 2) watches a *histogram-based
component-wise temperature distribution* of the whole platform next to the
plant telemetry.  These builders produce exactly that: per 10-second
interval, the number of GPUs in each temperature band, the hot-component
count, and summary statistics, joined with the cooling-plant channels,
cluster-wide (Datasets 8-9).
"""

from __future__ import annotations

import numpy as np

from repro.frame.table import Table

#: temperature band edges (degC) of the operator histogram
DEFAULT_BANDS: tuple[float, ...] = (30.0, 40.0, 50.0, 55.0, 60.0, 65.0, 70.0)

#: a GPU at or above this core temperature counts as "hot"
HOT_THRESHOLD_C = 65.0


def temperature_band_counts(temps: np.ndarray) -> np.ndarray:
    """Histogram GPU temperatures into the :data:`DEFAULT_BANDS`.

    ``temps`` is any-shape array of component temperatures for one
    interval; returns ``len(DEFAULT_BANDS) + 1`` counts for ``(-inf, b0),
    [b0, b1), ..., [b_last, inf)``.  NaNs (lost sensors) are excluded.
    """
    bands = DEFAULT_BANDS
    t = np.asarray(temps, dtype=np.float64).ravel()
    t = t[np.isfinite(t)]
    edges = np.concatenate([[-np.inf], bands, [np.inf]])
    counts, _ = np.histogram(t, bins=edges)
    return counts


def thermal_cluster_series(
    twin,
    t0: float,
    t1: float,
    dt: float = 10.0,
) -> Table:
    """Dataset 8/9 analogue: cluster-wide thermal state per interval.

    Columns: ``timestamp``, ``n_reporting`` (GPUs with data), ``n_hot``,
    ``band_lt_{b}``/``band_ge_{last}`` counts, ``gpu_core_mean``,
    ``gpu_core_max``, plus the plant channels ``mtwst``/``mtwrt``/``pue``.
    """
    arr = twin.builder.build(t0, t1, dt, per_gpu=True)
    nodes = np.arange(twin.config.n_nodes)
    st = twin.plant.simulate(
        arr.times + twin.spec.start_time, arr.cluster_power_w()
    )
    temps = twin.thermal.gpu_temperature(
        nodes, arr.gpu_power_w, st.mtw_supply_c, dt
    )

    n_t = arr.n_times
    bands = DEFAULT_BANDS
    n_bands = len(bands) + 1
    band_counts = np.empty((n_t, n_bands), dtype=np.int64)
    gmean = np.empty(n_t)
    gmax = np.empty(n_t)
    n_rep = np.empty(n_t, dtype=np.int64)
    n_hot = np.empty(n_t, dtype=np.int64)
    for k in range(n_t):
        slice_t = temps[:, :, k]
        finite = slice_t[np.isfinite(slice_t)]
        band_counts[k] = temperature_band_counts(slice_t)
        n_rep[k] = finite.size
        n_hot[k] = int((finite >= HOT_THRESHOLD_C).sum())
        gmean[k] = finite.mean() if finite.size else np.nan
        gmax[k] = finite.max() if finite.size else np.nan

    cols: dict[str, np.ndarray] = {
        "timestamp": arr.times,
        "n_reporting": n_rep,
        "n_hot": n_hot,
        "gpu_core_mean": gmean,
        "gpu_core_max": gmax,
    }
    labels = [f"band_lt_{int(bands[0])}"] + [
        f"band_{int(a)}_{int(b)}" for a, b in zip(bands[:-1], bands[1:])
    ] + [f"band_ge_{int(bands[-1])}"]
    for i, lab in enumerate(labels):
        cols[lab] = band_counts[:, i]
    cols["mtwst"] = st.mtw_supply_c
    cols["mtwrt"] = st.mtw_return_c
    cols["pue"] = st.pue
    return Table(cols)

