"""End-to-end twin dataset generation (the paper's Datasets A-E and 0-13).

:func:`simulate_twin` builds a complete simulated deployment (catalog,
schedule, chips, plant, failures); :class:`TwinData` then derives every
dataset the analyses consume, either through the full telemetry pipeline
(1 Hz sampling -> coarsening -> joins, exercised on windows) or through the
mathematically equivalent direct synthesis used for year-scale spans.
"""

from repro.datasets.generate import (
    SimulationSpec,
    TwinData,
    simulate_twin,
    job_power_series_direct,
    cluster_power_direct,
)
from repro.datasets.store import (
    dataset_inventory,
    write_log_csvs,
    write_partitioned_series,
)
from repro.datasets.thermal import (
    thermal_cluster_series,
    temperature_band_counts,
)

__all__ = [
    "SimulationSpec",
    "TwinData",
    "simulate_twin",
    "job_power_series_direct",
    "cluster_power_direct",
    "dataset_inventory",
    "write_log_csvs",
    "write_partitioned_series",
    "thermal_cluster_series",
    "temperature_band_counts",
]
