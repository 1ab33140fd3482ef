"""Chunked year-scale pipeline: time-window shards, artifact cache, stats.

The substrate for running the twin + analysis out of core:

* :class:`~repro.pipeline.runner.Pipeline` — the chunked execution layer
  (DAG of time-window shards fanned out through the Executor),
* :class:`~repro.pipeline.cache.ArtifactCache` / ``cache_key`` — the
  content-addressed on-disk artifact store keyed on spec + stage + chunk,
* :class:`~repro.pipeline.stats.PipelineStats` — per-stage wall time, rows,
  bytes, and cache hit/miss counters.
"""

from repro.pipeline.cache import (
    ArtifactCache,
    cache_key,
    CACHE_FORMAT_VERSION,
)
from repro.pipeline.runner import Pipeline, PipelineConfig, chunk_windows
from repro.pipeline.stats import PipelineStats, StageStats

__all__ = [
    "ArtifactCache",
    "cache_key",
    "CACHE_FORMAT_VERSION",
    "Pipeline",
    "PipelineConfig",
    "chunk_windows",
    "PipelineStats",
    "StageStats",
]
