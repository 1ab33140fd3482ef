"""The one test oracle for the query plan: an in-memory single pass.

``single_pass(telemetry, query)`` masks the in-memory table by the query's
time range and node selection, then runs the kernels once — no shards, no
plan, no pipeline, no service.  Every archive route
(``plan_query(q, ds).execute()``, ``Pipeline.telemetry_series``, the query
service) must equal it bit for bit at the cluster and node levels.  At the
raw level it is the projected row set in the table's own order; the archive
hands rows back shard by shard, so compare the two as whole rows with
:func:`by_rows`.
"""

import numpy as np

from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.plan import BY, OUT_TIME, Query


def single_pass(telemetry, query=Query()):
    """Ground truth for ``query`` over the un-archived ``telemetry``."""
    t = np.asarray(telemetry[OUT_TIME], dtype=np.float64)
    lo = -np.inf if query.t_begin is None else query.t_begin
    hi = np.inf if query.t_end is None else query.t_end
    sub = telemetry.filter((t >= lo) & (t < hi))
    nodes = query.node_selection()
    if nodes is not None:
        sub = sub.filter(np.isin(np.asarray(sub[BY]), nodes))
    if query.level == "raw":
        return sub.select(list(dict.fromkeys([BY, OUT_TIME, *query.metrics])))
    coarse = coarsen_telemetry(sub, list(query.metrics), width=query.width)
    if query.level == "node":
        return coarse.sort([BY, OUT_TIME])
    return cluster_power_series(coarse, value=query.metrics[0])


def by_rows(table):
    """``table`` sorted on every column: equal for two tables exactly when
    they hold the same rows, whatever order each came in."""
    return table.sort(table.columns)
