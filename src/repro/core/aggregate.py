"""Cluster-level collapses of the coarsened per-node data (Datasets 1-2).

The per-timestamp summation of per-node 10 s means approximates total
cluster power (validated against the MSB meters in Figure 4 /
:mod:`repro.core.validation`).
"""

from __future__ import annotations

import numpy as np

from repro.frame.groupby import group_by
from repro.frame.table import Table


def cluster_power_series(
    coarse: Table, value: str = "input_power", presorted: bool | None = None
) -> Table:
    """Dataset 1: cluster power per 10 s window.

    Expects Dataset 0-style columns ``{value}_mean`` / ``{value}_max`` and
    ``timestamp``; returns ``timestamp, count_inp, sum_inp, mean_inp,
    max_inp`` (the artifact appendix's column names).

    ``presorted=True`` declares the rows already timestamp-ordered (the
    streaming aggregate's buffers are built that way), collapsing through
    the run-length kernel instead of a sort; ``None`` probes.  Output is
    bit-identical either way, and timestamp-ordered unsorted: a one-key
    :func:`group_by` emits ascending keys, NaN last, on every route.
    """
    mean_col = f"{value}_mean"
    max_col = f"{value}_max"
    for c in (mean_col, max_col, "timestamp"):
        if c not in coarse:
            raise KeyError(f"expected coarsened column {c!r}")
    return group_by(
        coarse,
        "timestamp",
        {
            "count_inp": "count",
            "sum_inp": (mean_col, "sum"),
            "mean_inp": (mean_col, "mean"),
            "max_inp": (max_col, "max"),
        },
        presorted=presorted,
    )


def cluster_component_series(
    coarse: Table,
    cpu_value: str = "cpu_power",
    gpu_value: str = "gpu_power",
) -> Table:
    """Dataset 2: per-window cross-node stats of CPU and GPU node power.

    Returns the artifact's columns: ``mean/std/min/max_cpu_power`` and
    ``mean/std/max_gpu_power`` per timestamp.
    """
    aggs = {
        "mean_cpu_power": (f"{cpu_value}_mean", "mean"),
        "std_cpu_power": (f"{cpu_value}_mean", "std"),
        "min_cpu_power": (f"{cpu_value}_mean", "min"),
        "max_cpu_power": (f"{cpu_value}_mean", "max"),
        "mean_gpu_power": (f"{gpu_value}_mean", "mean"),
        "std_gpu_power": (f"{gpu_value}_mean", "std"),
        "max_gpu_power": (f"{gpu_value}_mean", "max"),
    }
    for out, (col, _) in aggs.items():
        if col not in coarse:
            raise KeyError(f"expected coarsened column {col!r}")
    return group_by(coarse, "timestamp", aggs).sort("timestamp")


def component_sums_from_sockets(telemetry: Table) -> Table:
    """Derive per-node ``cpu_power``/``gpu_power`` columns from the raw
    per-socket / per-GPU telemetry channels, in place of the aggregate
    channels when only the full schema is available."""
    cols = dict(telemetry.as_dict())
    cpu = None
    for s in range(2):
        c = cols.get(f"p{s}_power")
        if c is not None:
            cpu = c if cpu is None else cpu + c
    if cpu is None and "p0_power" not in cols:
        raise KeyError("no per-socket CPU power channels present")
    gpu = None
    if "gpu_power_total" in cols:
        gpu = cols["gpu_power_total"]
    else:
        for name, c in cols.items():
            if "_gpu" in name and name.endswith("_power"):
                gpu = c if gpu is None else gpu + c
    if gpu is None:
        raise KeyError("no GPU power channels present")
    out = Table(cols)
    out = out.with_column("cpu_power", cpu)
    out = out.with_column("gpu_power", gpu)
    return out
