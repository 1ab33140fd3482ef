"""``archive_cycle``: write, compact, then scan a telemetry archive.

The only workload that *writes*: encode, ``save_rcs``, the manifest and
compaction sit beside decode and the batch kernel chain, so a codec change
that speeds reads at the cost of writes (or bytes) shows.  It is also the
only user of ``pipeline.runner`` + ``parallel.executor``.  Every block
writes the same table into a fresh directory, so no block sees another's
files.  Slots: ``[write, compact]`` and ``[series, to_table] x scans``.
"""

from __future__ import annotations

import shutil
import time

from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.datasets import write_partitioned_series
from repro.obs import span
from repro.parallel import Executor
from repro.pipeline import Pipeline, PipelineConfig

from ledger.layers import per, storage_metrics
from ledger.workloads import (Workload, compact_pairs, timed,
                              twin_telemetry)

SHARD_S = 300.0


def _noop(item):
    return item


class ArchiveCycle(Workload):
    name = "archive_cycle"

    def build(self, r: int) -> None:
        self.nodes, seconds, self.scans = (
            (24, 300.0, 2) if self.quick else (72, 600.0, 4)
        )
        twin, self.telemetry = twin_telemetry(
            self, self.nodes, seconds, per_gpu=True
        )
        with self.step("reference"):
            self.rows = self.telemetry.n_rows
            self.units = (float(self.rows), float(self.rows * self.scans))
            self.reference = cluster_power_series(
                coarsen_telemetry(self.telemetry, ["input_power"])
            )
            # compaction re-sorts every shard by time: the archive holds
            # the telemetry in stable time order
            self.sorted_telemetry = self.telemetry.sort("timestamp")
            self.pipe = Pipeline(twin, PipelineConfig())
        self.bytes_per_row: float | None = None

    def block(self, k: int) -> tuple[list[float], list[float]]:
        root = self.work / f"archive-{k}"
        try:
            with span("datasets:write_partitioned_series"):
                write_s, ds = timed(
                    write_partitioned_series, self.telemetry, root,
                    "telemetry", day_s=SHARD_S,
                )
            compact_s, _ = timed(compact_pairs, ds, self.nodes, SHARD_S)

            scan_slots, scanned = [], []
            for _ in range(self.scans):
                with span("pipeline:telemetry_series"):
                    series_s, series = timed(self.pipe.telemetry_series, ds)
                table_s, table = timed(ds.to_table)
                scan_slots += [series_s, table_s]
                scanned.append((series, table))

            with span("ledger:checks"):
                self.op(ds.n_rows == self.rows, "ingest: row count")
                per_row = ds.n_bytes / ds.n_rows
                if self.bytes_per_row is None:
                    self.bytes_per_row = per_row
                self.op(per_row == self.bytes_per_row,
                        "ingest: bytes_per_row differs between blocks")
                for series, table in scanned:
                    self.op(series == self.reference,
                            "scan: series != in-memory reference")
                    self.op(table == self.sorted_telemetry,
                            "scan: to_table round trip not bit-identical")
        finally:
            with span("ledger:cleanup"):
                shutil.rmtree(root, ignore_errors=True)
        return [write_s, compact_s], scan_slots

    def probe(self, record) -> None:
        executor = Executor()
        t0 = time.perf_counter()
        executor.map(_noop, range(1000))
        self.dispatch_us = (time.perf_counter() - t0) * 1e3

    def layer_metrics(self, spans) -> dict[str, float]:
        series = "pipeline:telemetry_series"
        series_s = spans.total(series)
        inside = sum(
            spans.total(name, under=series) for name in
            ("parallel.partition:read", "core:coarsen", "core:aggregate")
        )
        return {
            **storage_metrics(spans),
            "parallel.partition.bytes_per_row": self.bytes_per_row or 0.0,
            "parallel.executor.dispatch_us_per_task": self.dispatch_us,
            "pipeline.telemetry_series_ms":
                per(series_s, spans.count(series), 1e3),
            "pipeline.overhead_share":
                1.0 - inside / series_s if series_s else 0.0,
        }
