"""GPU reliability analytics (Section 6.1, Table 4, Figures 13-16)."""

from __future__ import annotations

import numpy as np

from repro.config import SUMMIT
from repro.failures.xid import XID_TYPES
from repro.failures.model import FailureLog
from repro.frame.groupby import group_by
from repro.frame.join import join
from repro.frame.table import Table
from repro.workload.jobs import JobCatalog
from repro.workload.scheduler import ScheduleResult


def failure_composition(log: FailureLog) -> Table:
    """Table 4: per-type count, worst-node count and share, user flag."""
    n_nodes = int(log.table["node"].max()) + 1 if log.n_failures else 1
    m = log.node_type_matrix(n_nodes)
    total = m.sum(axis=0)
    worst = m.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(total > 0, worst / np.maximum(total, 1), 0.0)
    return Table(
        {
            "xid_name": np.array([t.name for t in XID_TYPES]),
            "count": total.astype(np.int64),
            "max_count_per_node": worst.astype(np.int64),
            "max_node_share": share,
            "user_associated": np.array([t.user_associated for t in XID_TYPES]),
        }
    )


#: family-wise significance level of Figure 13's co-occurrence test
COOCCURRENCE_ALPHA = 0.05


def cooccurrence_matrix(
    log: FailureLog, n_nodes: int
) -> dict[str, np.ndarray]:
    """Figure 13: Pearson correlation of per-node failure-count vectors.

    Returns ``{"corr", "pvalue", "significant", "threshold", "names"}``;
    ``corr`` entries failing the significance test (level
    :data:`COOCCURRENCE_ALPHA`, Bonferroni-corrected over the type pairs)
    are NaN-masked in ``significant``.  Types with zero variance (no
    failures) are NaN throughout.
    """
    from scipy import stats

    m = log.node_type_matrix(n_nodes).astype(np.float64)
    k = m.shape[1]
    std = m.std(axis=0)
    corr = np.full((k, k), np.nan)
    pval = np.full((k, k), np.nan)
    valid = std > 0
    if valid.sum() >= 2:
        sub = m[:, valid]
        c = np.corrcoef(sub, rowvar=False)
        # two-sided p-value from the t-statistic of r with n-2 dof
        n = m.shape[0]
        r = np.clip(c, -0.9999999, 0.9999999)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = r * np.sqrt((n - 2) / (1.0 - r * r))
        p = 2.0 * stats.t.sf(np.abs(t), df=n - 2)
        idx = np.flatnonzero(valid)
        corr[np.ix_(idx, idx)] = c
        pval[np.ix_(idx, idx)] = p
    n_pairs = k * (k - 1) / 2
    threshold = COOCCURRENCE_ALPHA / n_pairs
    significant = corr.copy()
    significant[~(pval <= threshold)] = np.nan
    np.fill_diagonal(significant, 1.0)
    return {
        "corr": corr,
        "pvalue": pval,
        "significant": significant,
        "threshold": threshold,
        "names": np.array([t.name for t in XID_TYPES]),
    }


def _project_node_hours(
    catalog: JobCatalog, schedule: ScheduleResult
) -> Table:
    """Node-hours of compute per project over the scheduled period."""
    al = schedule.allocations
    cat = catalog.table.select(["allocation_id", "project"])
    joined = join(al, cat, "allocation_id", how="inner")
    nh = (
        joined["node_count"]
        * (joined["end_time"] - joined["begin_time"])
        / 3600.0
    )
    work = Table({"project": joined["project"], "nh": nh})
    return group_by(work, "project", {"node_hours": ("nh", "sum")})


def failures_per_project(
    log: FailureLog,
    catalog: JobCatalog,
    schedule: ScheduleResult,
    hardware_only: bool = False,
    top: int = 15,
) -> dict[str, object]:
    """Figure 14: failures per node-hour for the top-N error-prone projects.

    Returns ``{"table", "breakdown", "type_names"}``: ``table`` has one row
    per top project (project, node_hours, n_failures, per_node_hour);
    ``breakdown`` is the (top, n_types) count matrix feeding the stacked
    bars.
    """
    t = log.table
    mask = t["allocation_id"] > 0
    if hardware_only:
        hw = np.array([not x.user_associated for x in XID_TYPES])
        mask &= hw[t["xid_index"]]
    sub = t.filter(mask)

    nh = _project_node_hours(catalog, schedule)
    nh_map = dict(zip(nh["project"].tolist(), nh["node_hours"].tolist()))

    projects, inv = np.unique(sub["project"], return_inverse=True)
    n_types = len(XID_TYPES)
    breakdown = np.zeros((len(projects), n_types), dtype=np.int64)
    np.add.at(breakdown, (inv, sub["xid_index"]), 1)
    counts = breakdown.sum(axis=1)
    hours = np.array([max(nh_map.get(str(p), 0.0), 1e-9) for p in projects])
    rate = counts / hours

    order = np.argsort(rate)[::-1][:top]
    table = Table(
        {
            "project": projects[order],
            "node_hours": hours[order],
            "n_failures": counts[order].astype(np.int64),
            "per_node_hour": rate[order],
        }
    )
    return {
        "table": table,
        "breakdown": breakdown[order],
        "type_names": np.array([t_.name for t_ in XID_TYPES]),
    }


def thermal_extremity(
    log: FailureLog, thermal_summary: Table
) -> dict[str, object]:
    """Figure 15: z-score of GPU core temperature at failure, per type.

    Joins each failure to its job's temperature distribution and computes
    ``z = (temp - mean) / std``.  Failures with lost temperature, no job
    context, or from the NVLink super-offender node are
    excluded — exactly the paper's filtering.

    Returns ``{"table", "z_by_type", "temp_by_type"}`` where ``table`` has
    per-type n / skewness / max temp / fraction at or above 60 degC.
    """
    from scipy import stats

    t = log.table
    keep = (t["allocation_id"] > 0) & np.isfinite(t["gpu_temp_c"])
    if log.n_failures:
        nvl = next(i for i, x in enumerate(XID_TYPES) if "NVLINK" in x.name)
        nv_rows = t["xid_index"] == nvl
        if nv_rows.any():
            nodes = t["node"][nv_rows]
            vals, cts = np.unique(nodes, return_counts=True)
            worst = vals[np.argmax(cts)]
            if cts.max() / max(nv_rows.sum(), 1) > 0.5:
                keep &= ~((t["node"] == worst) & nv_rows)
    sub = t.filter(keep)
    joined = join(
        sub, thermal_summary, "allocation_id", how="inner"
    )
    z = (joined["gpu_temp_c"] - joined["gpu_temp_mean"]) / np.maximum(
        joined["gpu_temp_std"], 1e-9
    )

    names, ns, skews, maxts, frac60 = [], [], [], [], []
    z_by, temp_by = {}, {}
    for i, x in enumerate(XID_TYPES):
        sel = joined["xid_index"] == i
        zz = z[sel]
        tt = joined["gpu_temp_c"][sel]
        names.append(x.name)
        ns.append(int(sel.sum()))
        skews.append(stats.skew(zz) if len(zz) >= 3 else float("nan"))
        maxts.append(float(tt.max()) if len(tt) else float("nan"))
        frac60.append(float((tt >= 60.0).mean()) if len(tt) else float("nan"))
        z_by[x.name] = zz
        temp_by[x.name] = tt
    table = Table(
        {
            "xid_name": np.array(names),
            "n": np.array(ns, np.int64),
            "z_skewness": np.array(skews),
            "max_temp_c": np.array(maxts),
            "frac_ge_60c": np.array(frac60),
        }
    )
    return {"table": table, "z_by_type": z_by, "temp_by_type": temp_by}


def slot_counts(log: FailureLog) -> dict[str, np.ndarray]:
    """Figure 16: failure counts per GPU slot per type.

    Returns ``{"matrix" (n_types, 6), "names"}``.
    """
    t = log.table
    n_types = len(XID_TYPES)
    m = np.zeros((n_types, SUMMIT.gpus_per_node), dtype=np.int64)
    if log.n_failures:
        np.add.at(m, (t["xid_index"], t["gpu_slot"]), 1)
    return {"matrix": m, "names": np.array([x.name for x in XID_TYPES])}
