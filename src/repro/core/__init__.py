"""The paper's analysis methodology (Sections 3-6).

Pipeline stages mirror the artifact appendix's derived datasets:

1 Hz telemetry --:mod:`~repro.core.coarsen`--> 10 s per-node stats
(Dataset 0) --:mod:`~repro.core.aggregate`--> cluster-level series
(Dataset 1) --:mod:`~repro.core.jobjoin`--> job-wise series and
summaries (Datasets 3-7) --> analyses:

* :mod:`~repro.core.edges` — rising/falling edge detection, durations,
  snapshot superposition (Figures 10-12),
* :mod:`~repro.core.spectral` — differenced FFT dominant frequency and
  amplitude (Figure 10),
* :mod:`~repro.core.density` — KDE / quantile / boxplot statistics
  (Figures 5-9),
* :mod:`~repro.core.validation` — MSB meter vs per-node summation
  (Figure 4),
* :mod:`~repro.core.pue` — PUE series and weekly summaries (Figure 5),
* :mod:`~repro.core.energy` — job energy integration (Dataset 7),
* :mod:`~repro.core.reliability` — failure composition, co-occurrence,
  per-project rates, thermal extremity, slot placement (Table 4,
  Figures 13-16),
* :mod:`~repro.core.spatial` — cabinet heatmaps and locality (Figure 17),
* :mod:`~repro.core.fingerprint` — job power-profile fingerprinting
  (Section 9 future work),
* :mod:`~repro.core.report` — plain-text rendering of every table/figure.
"""

from repro.core.coarsen import coarsen_telemetry
from repro.core.aggregate import cluster_power_series
from repro.core.jobjoin import (
    tag_allocations,
    job_power_series,
    job_power_summary,
    job_component_summary,
)
from repro.core.energy import job_energy
from repro.core.edges import (
    detect_edges,
    edges_per_job,
    extract_snapshot,
    superimpose,
)
from repro.core.spectral import dominant_mode, job_spectral_summary
from repro.core.density import (
    quantiles,
    boxplot_stats,
    kde_2d,
)
from repro.core.lag import estimate_lag_s
from repro.core.validation import msb_validation
from repro.core.pue import weekly_summary
from repro.core.reliability import (
    failure_composition,
    cooccurrence_matrix,
    failures_per_project,
    thermal_extremity,
    slot_counts,
)
from repro.core.spatial import cabinet_temperature_grid, spatial_locality
from repro.core.fingerprint import (
    job_fingerprints,
    kmeans,
    user_portraits,
    portrait_prediction_error,
)

__all__ = [
    "coarsen_telemetry",
    "cluster_power_series",
    "tag_allocations",
    "job_power_series",
    "job_power_summary",
    "job_component_summary",
    "job_energy",
    "detect_edges",
    "edges_per_job",
    "extract_snapshot",
    "superimpose",
    "dominant_mode",
    "job_spectral_summary",
    "quantiles",
    "boxplot_stats",
    "kde_2d",
    "estimate_lag_s",
    "msb_validation",
    "weekly_summary",
    "failure_composition",
    "cooccurrence_matrix",
    "failures_per_project",
    "thermal_extremity",
    "slot_counts",
    "cabinet_temperature_grid",
    "spatial_locality",
    "job_fingerprints",
    "kmeans",
    "user_portraits",
    "portrait_prediction_error",
]
