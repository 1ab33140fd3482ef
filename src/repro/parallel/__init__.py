"""Partitioned-dataset parallel execution.

The paper's pipeline ran on Dask: a year of 1 Hz telemetry stored as one
file per day, processed partition by partition.  Two pieces of that
execution model have callers here:

* :class:`~repro.parallel.partition.PartitionedDataset` — a directory of
  time-partitioned ``.rcs`` columnar shards with a JSON manifest carrying
  per-shard zone maps,
* :class:`~repro.parallel.executor.Executor` — serial / thread / process
  map engine.

What to run over the partitions is decided by the query plan
(:mod:`repro.plan`), the one sequencer of read → coarsen →
aggregate.
"""

from repro.parallel.executor import (
    Executor,
    NotPicklableError,
    default_mp_context,
    default_workers,
)
from repro.parallel.partition import PartitionedDataset, PartitionMeta

__all__ = [
    "Executor",
    "NotPicklableError",
    "default_mp_context",
    "default_workers",
    "PartitionedDataset",
    "PartitionMeta",
]
