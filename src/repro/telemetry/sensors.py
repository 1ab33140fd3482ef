"""Sensor error model.

Section 3: each 1 Hz emit is a 500 us *instantaneous* sample (no energy
accumulators on these BMCs), so a fast-swinging load aliases into the
1 Hz stream as sampling noise.  On top of that, the APSS/VRM measurement
chain quantizes and carries a small gain/offset error per sensor.
"""

from __future__ import annotations

import numpy as np

#: power LSB of the APSS chain (W)
POWER_QUANTUM_W = 1.0
#: temperature LSB of the on-die sensors (degC)
TEMP_QUANTUM_C = 1.0
#: instantaneous-sampling noise as a fraction of the local dynamic range
SAMPLING_NOISE_FRACTION = 0.25
#: per-sensor gain error (one sigma, relative)
GAIN_SIGMA = 0.005


def quantize_power(values: np.ndarray) -> np.ndarray:
    """Quantize power readings to the APSS LSB."""
    return np.round(np.asarray(values, dtype=np.float64) / POWER_QUANTUM_W) * POWER_QUANTUM_W


def quantize_temperature(values: np.ndarray) -> np.ndarray:
    """Quantize temperatures to whole degrees (what the BMC reports)."""
    return np.round(np.asarray(values, dtype=np.float64) / TEMP_QUANTUM_C) * TEMP_QUANTUM_C


def sensor_gains(rng: np.random.Generator, n: int) -> np.ndarray:
    """Fixed per-sensor gain factors (drawn once per deployment)."""
    return rng.normal(1.0, GAIN_SIGMA, n)
