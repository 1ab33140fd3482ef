"""Per-node aggregation vs MSB meters (Section 3, Figure 4).

The method validates cluster-level power computed by summing per-node
sensor readings against the independent switchboard meters: the summation
runs systematically below the meter (distribution and conversion losses the
node sensors never see), but the two series stay in phase with matching
swing amplitudes — which is what licenses per-node aggregation for job-level
analysis.
"""

from __future__ import annotations

import numpy as np

from repro.frame.table import Table


def msb_validation(
    meter_w: np.ndarray,
    summation_w: np.ndarray,
) -> dict[str, object]:
    """Compare meter and summation series (both ``(n_msbs, n_t)``); the
    MSBs are named ``A``, ``B``, ... in row order.

    Returns
    -------
    dict with:
        ``per_msb`` — Table: msb, mean_diff_w, std_diff_w, mean_meter_w,
        relative_diff, phase_corr (Pearson correlation of the first
        differences — "the oscillation ... in phase"), amplitude_ratio
        (std of differenced summation / std of differenced meter — "the
        same magnitude");
        ``mean_diff_w`` — mean of (summation - meter) summed over MSBs
        (the paper's "-128.83 kW");
        ``relative_diff`` — |total diff| / total meter (the "11%");
        ``diffs`` — the raw (n_msbs, n_t) difference array for histograms.
    """
    meter_w = np.asarray(meter_w, dtype=np.float64)
    summation_w = np.asarray(summation_w, dtype=np.float64)
    if meter_w.shape != summation_w.shape:
        raise ValueError("meter and summation shapes differ")
    n_msb, n_t = meter_w.shape
    msb_names = tuple(chr(ord("A") + i) for i in range(n_msb))

    diffs = summation_w - meter_w
    mean_diff = diffs.mean(axis=1)
    std_diff = diffs.std(axis=1)
    mean_meter = meter_w.mean(axis=1)

    phase = np.empty(n_msb)
    amp_ratio = np.empty(n_msb)
    for m in range(n_msb):
        dm = np.diff(meter_w[m])
        ds = np.diff(summation_w[m])
        if dm.std() == 0 or ds.std() == 0:
            phase[m] = np.nan
            amp_ratio[m] = np.nan
        else:
            phase[m] = float(np.corrcoef(dm, ds)[0, 1])
            amp_ratio[m] = float(ds.std() / dm.std())

    per_msb = Table(
        {
            "msb": np.array(msb_names),
            "mean_diff_w": mean_diff,
            "std_diff_w": std_diff,
            "mean_meter_w": mean_meter,
            "relative_diff": np.abs(mean_diff) / mean_meter,
            "phase_corr": phase,
            "amplitude_ratio": amp_ratio,
        }
    )
    total_diff = float(diffs.sum(axis=0).mean())
    total_meter = float(meter_w.sum(axis=0).mean())
    return {
        "per_msb": per_msb,
        "mean_diff_w": total_diff,
        "relative_diff": abs(total_diff) / total_meter,
        "diffs": diffs,
    }
