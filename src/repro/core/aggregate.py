"""Cluster-level collapses of the coarsened per-node data (Dataset 1).

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
