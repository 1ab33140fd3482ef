"""Out-of-band telemetry path (Section 2, Figures 2-4).

Models the OpenBMC -> collector pipeline: per-node 1 Hz sampling of
instantaneous (500 us) power readings, sensor noise and quantization,
fan-in timestamping delay (mean 2.5 s, max 5 s), data-loss episodes, and
the independent MSB revenue meters used to validate per-node aggregation
(Figure 4).  The archive's lossless compression is the ``.rcs`` column
codec of :mod:`repro.frame.encodings`.
"""

from repro.telemetry.schema import METRICS
from repro.telemetry.sensors import quantize_power
from repro.telemetry.collector import TelemetrySampler, LossEvent
from repro.telemetry.msb import MsbMeters
from repro.telemetry.ingest import (
    IngestBudget,
    ingest_budget,
    sample_propagation_delays,
    FAN_IN_RATIO,
)

__all__ = [
    "METRICS",
    "quantize_power",
    "TelemetrySampler",
    "LossEvent",
    "MsbMeters",
    "IngestBudget",
    "ingest_budget",
    "sample_propagation_delays",
    "FAN_IN_RATIO",
]
