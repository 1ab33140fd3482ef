"""Ingest-path model: the fan-in tree of Figure 3 and its latency budget.

The production path is BMC -> per-rack websocket fan-in (288:1 via
IBM-CRASSD service nodes) -> aggregation/stamping -> point of analysis.
The paper reports a 460k metrics/s ingest rate, an average 2.5 s (max 5 s)
stamping delay, and a 4.1 s mean end-to-end propagation delay.  This model
reproduces that budget for Summit's metric catalog at any machine size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SummitConfig, SUMMIT
from repro.telemetry.schema import N_METRICS

#: out-of-band management-network fan-in ratio (nodes per service node)
FAN_IN_RATIO = 288

#: per-hop latency components (seconds)
BMC_EMIT_JITTER_S = 0.5       # BMC pushes on change within its 1 s tick
FAN_IN_BATCH_S = 1.0          # service node batches one websocket flush
AGGREGATION_MEAN_S = 2.5      # stamping delay at the aggregation point
AGGREGATION_MAX_S = 5.0
ANALYSIS_HOP_S = 0.85         # hand-off + query path to the analysis point

#: *compressed* wire footprint per sample: ~2.2 B reproduces the paper's
#: "460k metrics/s -> ~1 MB/s"
BYTES_PER_METRIC = 2.2


@dataclass(frozen=True)
class IngestBudget:
    """Static sizing of the ingest path for a machine configuration."""

    n_nodes: int
    n_service_nodes: int
    metrics_per_second: float
    bytes_per_second: float
    mean_delay_s: float
    max_delay_s: float


def ingest_budget(config: SummitConfig = SUMMIT) -> IngestBudget:
    """Size the ingest path for :data:`~repro.telemetry.schema.N_METRICS`
    metrics per node, each :data:`BYTES_PER_METRIC` on the wire."""
    n_nodes = config.n_nodes
    n_service = max(1, -(-n_nodes // FAN_IN_RATIO))
    rate = n_nodes * N_METRICS * config.telemetry_rate_hz
    # calibration: the measured end-to-end mean on the real system is 4.1 s
    mean_delay = (
        BMC_EMIT_JITTER_S / 2
        + FAN_IN_BATCH_S / 2
        + AGGREGATION_MEAN_S
        + ANALYSIS_HOP_S
    )
    max_delay = BMC_EMIT_JITTER_S + FAN_IN_BATCH_S + AGGREGATION_MAX_S + ANALYSIS_HOP_S
    return IngestBudget(
        n_nodes=n_nodes,
        n_service_nodes=n_service,
        metrics_per_second=rate,
        bytes_per_second=rate * BYTES_PER_METRIC,
        mean_delay_s=mean_delay,
        max_delay_s=max_delay,
    )


def sample_propagation_delays(
    rng: np.random.Generator, n: int
) -> np.ndarray:
    """Per-payload end-to-end delays: sum of the per-hop components.

    BMC jitter ~ U(0, 0.5), fan-in batching ~ U(0, 1), aggregation
    stamping ~ U(0, 5), analysis hop constant — mean ≈ 4.1 s as measured.
    """
    return (
        rng.uniform(0.0, BMC_EMIT_JITTER_S, n)
        + rng.uniform(0.0, FAN_IN_BATCH_S, n)
        + rng.uniform(0.0, AGGREGATION_MAX_S, n)
        + ANALYSIS_HOP_S
    )
