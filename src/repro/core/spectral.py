"""Fourier characterization of job power dynamics (Figure 10, bottom).

The paper differences each job's power series (power is strongly
auto-correlated, so the raw spectrum is dominated by the trend) and applies
an FFT, keeping the maximum-amplitude bin and its frequency per job.
"""

from __future__ import annotations

import numpy as np

from repro.config import SUMMIT
from repro.frame.table import Table


def dominant_mode(
    power_w: np.ndarray, dt: float
) -> tuple[float, float]:
    """(frequency_hz, amplitude_w) of the strongest mode of the differenced
    series.  Returns (nan, nan) for series too short to difference twice.

    Amplitude is the single-sided spectrum magnitude ``2|X_k|/N`` of the
    *differenced* signal — comparable across jobs of different length, and
    what the paper's stair-stepped amplitude distributions show.
    """
    p = np.asarray(power_w, dtype=np.float64)
    if len(p) < 4:
        return (float("nan"), float("nan"))
    d = np.diff(p)
    n = len(d)
    spec = np.fft.rfft(d)
    freqs = np.fft.rfftfreq(n, d=dt)
    mag = np.abs(spec)
    mag[0] = 0.0  # exclude DC
    k = int(np.argmax(mag))
    return (float(freqs[k]), float(2.0 * mag[k] / n))


#: samples per Welch segment; segments advance by half of it
WELCH_NPERSEG = 64


def welch_window(nperseg: int) -> np.ndarray:
    """Hann taper for one Welch segment."""
    return np.hanning(nperseg)


def job_spectral_summary(job_series: Table) -> Table:
    """Per-job dominant frequency and amplitude of ``sum_inp`` in a
    Dataset 3 series (sampled every ``SUMMIT.coarsen_window_s``).

    Columns: ``allocation_id, fft_freq_hz, fft_amplitude_w, n_samples``.
    Jobs with under 4 samples get NaN mode values (kept, so the caller sees
    the full population).
    """
    ids = job_series["allocation_id"]
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    ts_all = job_series["timestamp"][order]
    p_all = job_series["sum_inp"][order]
    bounds = np.flatnonzero(np.diff(ids_sorted)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(ids_sorted)]])

    n_jobs = len(starts)
    out_id = np.empty(n_jobs, np.int64)
    out_f = np.empty(n_jobs)
    out_a = np.empty(n_jobs)
    out_n = np.empty(n_jobs, np.int64)
    for i, (s, e) in enumerate(zip(starts, ends)):
        ts = ts_all[s:e]
        p = p_all[s:e]
        if len(ts) > 1 and np.any(np.diff(ts) < 0):
            o2 = np.argsort(ts, kind="stable")
            p = p[o2]
        f, a = dominant_mode(p, SUMMIT.coarsen_window_s)
        out_id[i] = ids_sorted[s]
        out_f[i] = f
        out_a[i] = a
        out_n[i] = e - s
    return Table(
        {
            "allocation_id": out_id,
            "fft_freq_hz": out_f,
            "fft_amplitude_w": out_a,
            "n_samples": out_n,
        }
    )
