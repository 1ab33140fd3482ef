"""Chunked year-scale pipeline: time-window shards, artifact cache, stats.

The substrate for running the twin + analysis out of core:

* :class:`~repro.pipeline.runner.Pipeline` — the chunked execution layer
  (DAG of time-window shards fanned out through the Executor),
* :class:`~repro.pipeline.cache.ArtifactCache` — the content-addressed
  on-disk artifact store keyed (by :func:`repro.plan.cache_key`) on spec +
  stage + chunk,
* :class:`~repro.pipeline.stats.PipelineStats` — per-stage wall time, rows,
  bytes, and cache hit/miss counters.
"""

from repro.pipeline.cache import ArtifactCache
from repro.pipeline.runner import Pipeline, PipelineConfig, chunk_windows
from repro.pipeline.stats import PipelineStats, StageStats

__all__ = [
    "ArtifactCache",
    "Pipeline",
    "PipelineConfig",
    "chunk_windows",
    "PipelineStats",
    "StageStats",
]
