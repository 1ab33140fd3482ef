"""On-disk dataset export and the Table 2 data-volume inventory."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro.frame.io import write_csv
from repro.frame.ops import lex_sorted
from repro.frame.table import Table
from repro.parallel.partition import PartitionedDataset
from repro.telemetry.schema import N_METRICS


def write_log_csvs(twin, root: str | Path) -> None:
    """Write the three log-style CSV datasets (C, D, E analogues)."""
    root = Path(root)
    write_csv(twin.schedule.allocations, root / "allocations.csv")
    write_csv(twin.schedule.node_allocations, root / "node_allocations.csv")
    write_csv(twin.failures.table.drop(["project"]).with_column(
        "project", twin.failures.table["project"].astype("U16")
    ), root / "xid_log.csv")


def write_partitioned_series(
    table: Table,
    root: str | Path,
    name: str,
    day_s: float = 86_400.0,
    t_end: float | None = None,
) -> PartitionedDataset:
    """Write ``table`` as a ``day_s``-partitioned dataset under
    ``root / name``, split on its ``timestamp`` column.

    ``t_end`` bounds the partition sweep; when None it is taken from the
    last sample (+1 s), since jobs started before the horizon close may run
    past it.

    When the time column is already sorted (probed in O(n) with
    :func:`~repro.frame.ops.lex_sorted` — true for every series the export
    writes) each day's rows are located with two ``searchsorted`` probes
    and sliced, instead of rescanning all rows once per day; unsorted
    input falls back to the per-day boolean mask.  Both paths write
    identical shards.
    """
    if not 0.0 < day_s < math.inf:
        raise ValueError(f"day_s must be finite and > 0, got {day_s!r}")
    t = table["timestamp"]
    if t_end is None:
        t_end = float(t.max()) + 1.0
    ds = PartitionedDataset.create(Path(root) / name, name)
    is_sorted = lex_sorted([t])
    day = 0.0
    while day < t_end:
        if is_sorted:
            lo = int(np.searchsorted(t, day, side="left"))
            hi = int(np.searchsorted(t, day + day_s, side="left"))
            if hi > lo:
                ds.append(table[lo:hi], day, day + day_s)
        else:
            sel = (t >= day) & (t < day + day_s)
            if sel.any():
                ds.append(table.filter(sel), day, day + day_s)
        day += day_s
    return ds


def dataset_inventory(twin, root: str | Path | None = None) -> dict[str, object]:
    """Table 2 analogue: per-stream row counts and footprints.

    Raw 1 Hz telemetry is accounted analytically (rows = nodes x seconds,
    with the per-node metric count); materialized datasets report their
    on-disk size.
    """
    spec = twin.spec
    seconds = spec.horizon_s
    n_nodes = twin.config.n_nodes
    raw_rows = int(n_nodes * seconds)          # one row per node-second
    raw_metrics = raw_rows * N_METRICS

    inv: dict[str, object] = {
        "telemetry_rows": raw_rows,
        "telemetry_metric_samples": raw_metrics,
        "allocations_rows": twin.schedule.allocations.n_rows,
        "node_allocation_rows": twin.schedule.node_allocations.n_rows,
        "xid_rows": twin.failures.n_failures,
        "plant_rows": int(seconds / 15.0),     # CEP samples every ~15 s
    }
    if root is not None:
        root = Path(root)
        sizes = {}
        encodings: dict[str, int] = {}
        for name in ("allocations.csv", "node_allocations.csv", "xid_log.csv"):
            p = root / name
            if p.exists():
                sizes[name] = p.stat().st_size
        for name in ("job_series", "cluster_power"):
            d = root / name
            if (d / "manifest.json").exists():
                ds = PartitionedDataset(d)
                sizes[name] = ds.n_bytes
                for codec, n in ds.encoding_summary().items():
                    encodings[codec] = encodings.get(codec, 0) + n
        inv["on_disk_bytes"] = sizes
        # column-codec census across the partitioned stores (manifest-only)
        inv["encodings"] = encodings
    return inv
