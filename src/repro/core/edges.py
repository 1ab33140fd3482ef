"""Rising/falling edge analysis (Section 4.2, Figures 10-12).

Definitions straight from the paper:

* An **edge** is a change of more than 868 W *per allocated node* within one
  10 s step (4 MW at full system scale).  Consecutive same-direction
  crossing steps merge into one edge whose amplitude is the cumulative
  change — a 7 MW swing that takes 30 s is one edge, not three.
* An edge's **duration** runs from the edge start until power has returned
  80% of the way from its peak back toward its initial level.  If the job
  ends first, the duration is truncated at the job end (the source of the
  class-5 wall-limit kink in Figure 10).
* **Snapshots** around edges, superimposed and aligned at the edge with a
  95% confidence band, produce Figures 11-12.
"""

from __future__ import annotations

import numpy as np

from repro.config import SUMMIT
from repro.frame.table import Table, concat

#: ``(column, dtype)`` of an edge table, in column order: the batch
#: detector and the streaming one emit exactly this schema
EDGE_SCHEMA = (
    ("start_index", np.int64),
    ("time", np.float64),
    ("direction", np.int64),      # +1 rising, -1 falling
    ("amplitude_w", np.float64),  # cumulative signed change over the steps
    ("initial_w", np.float64),
    ("peak_w", np.float64),
    ("duration_s", np.float64),
    ("returned", np.bool_),       # False if truncated by the end of series
)


def edge_table(rows: list[dict]) -> Table:
    """The edge table of ``rows`` (dicts holding at least every
    :data:`EDGE_SCHEMA` column)."""
    return Table({
        name: np.array([r[name] for r in rows], dtype=dtype)
        for name, dtype in EDGE_SCHEMA
    })


def detect_edges(
    times: np.ndarray,
    power_w: np.ndarray,
    threshold_w: float,
) -> Table:
    """Detect edges in one power series; returns an edge table.

    ``times`` must be evenly spaced and aligned with ``power_w``.  An
    edge's duration ends when power has returned
    ``SUMMIT.edge_return_fraction`` of the way from its peak.
    """
    times = np.asarray(times, dtype=np.float64)
    power_w = np.asarray(power_w, dtype=np.float64)
    if times.shape != power_w.shape:
        raise ValueError("times and power must align")
    if len(power_w) < 2:
        return edge_table([])

    d = np.diff(power_w)
    sign = np.where(d > threshold_w, 1, np.where(d < -threshold_w, -1, 0))
    if not sign.any():
        return edge_table([])

    # runs of identical nonzero sign -> one edge each
    boundaries = np.flatnonzero(np.diff(sign) != 0) + 1
    run_starts = np.concatenate([[0], boundaries])
    run_ends = np.concatenate([boundaries, [len(sign)]])

    return_fraction = SUMMIT.edge_return_fraction
    rows: list[dict] = []
    n = len(power_w)
    for rs, re_ in zip(run_starts, run_ends):
        s = sign[rs]
        if s == 0:
            continue
        start = int(rs)
        end_step = int(re_)  # power index just past the last crossing step
        initial = power_w[start]
        amplitude = power_w[end_step] - initial
        # scan forward for the 80% return, tracking the running extreme
        peak = power_w[end_step]
        target_hit = None
        j = end_step
        while j < n:
            p = power_w[j]
            if s > 0:
                peak = max(peak, p)
                target = peak - return_fraction * (peak - initial)
                if p <= target and j > end_step:
                    target_hit = j
                    break
            else:
                peak = min(peak, p)
                target = peak - return_fraction * (peak - initial)
                if p >= target and j > end_step:
                    target_hit = j
                    break
            j += 1
        if target_hit is None:
            duration = times[-1] - times[start]
            returned = False
        else:
            duration = times[target_hit] - times[start]
            returned = True
        rows.append({
            "start_index": start, "time": float(times[start]),
            "direction": int(s), "amplitude_w": float(amplitude),
            "initial_w": float(initial), "peak_w": float(peak),
            "duration_s": float(duration), "returned": returned,
        })
    return edge_table(rows)


def edges_per_job(job_series: Table) -> tuple[Table, Table]:
    """Run edge detection over every job's ``sum_inp`` in a Dataset
    3-style series.

    The threshold scales with the job's node count
    (``SUMMIT.edge_threshold_w_per_node``, 868 W/node).  Returns
    ``(edges, per_job)``:

    * ``edges`` — all edges with an ``allocation_id`` column added,
    * ``per_job`` — one row per job: ``allocation_id, node_count, n_edges,
      n_rising, n_falling``.
    """
    ids = job_series["allocation_id"]
    order = np.argsort(ids, kind="stable")
    ids_sorted = ids[order]
    bounds = np.flatnonzero(np.diff(ids_sorted)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(ids_sorted)]])

    ts_all = job_series["timestamp"][order]
    p_all = job_series["sum_inp"][order]
    nodes_all = job_series["count_hostname"][order]

    edge_parts: list[Table] = []
    pj_id: list[int] = []
    pj_nodes: list[int] = []
    pj_edges: list[int] = []
    pj_rise: list[int] = []
    pj_fall: list[int] = []

    for s, e in zip(starts, ends):
        aid = int(ids_sorted[s])
        ts = ts_all[s:e]
        p = p_all[s:e]
        # the job's series must be in time order within the group
        if len(ts) > 1 and np.any(np.diff(ts) < 0):
            o2 = np.argsort(ts, kind="stable")
            ts, p = ts[o2], p[o2]
        nc = int(nodes_all[s:e].max())
        thr = SUMMIT.edge_threshold_w_per_node * nc
        edges = detect_edges(ts, p, thr)
        n_r = int((edges["direction"] == 1).sum())
        n_f = int((edges["direction"] == -1).sum())
        pj_id.append(aid)
        pj_nodes.append(nc)
        pj_edges.append(edges.n_rows)
        pj_rise.append(n_r)
        pj_fall.append(n_f)
        if edges.n_rows:
            edge_parts.append(
                edges.with_column(
                    "allocation_id", np.full(edges.n_rows, aid, np.int64)
                )
            )

    per_job = Table(
        {
            "allocation_id": np.array(pj_id, np.int64),
            "node_count": np.array(pj_nodes, np.int64),
            "n_edges": np.array(pj_edges, np.int64),
            "n_rising": np.array(pj_rise, np.int64),
            "n_falling": np.array(pj_fall, np.int64),
        }
    )
    if edge_parts:
        all_edges = concat(edge_parts)
    else:
        all_edges = edge_table([]).with_column(
            "allocation_id", np.empty(0, np.int64)
        )
    return all_edges, per_job


def extract_snapshot(
    times: np.ndarray,
    values: np.ndarray,
    center_time: float,
    before_s: float,
    after_s: float,
) -> np.ndarray:
    """Window of ``values`` around ``center_time``, NaN-padded at the ends.

    Output length is ``round((before_s + after_s)/dt) + 1`` with the center
    aligned at index ``round(before_s/dt)`` — so snapshots from different
    edges superimpose sample-for-sample.
    """
    times = np.asarray(times, dtype=np.float64)
    if len(times) < 2:
        raise ValueError("need at least two samples")
    dt = float(times[1] - times[0])
    n_before = int(round(before_s / dt))
    n_after = int(round(after_s / dt))
    center = int(round((center_time - times[0]) / dt))
    out = np.full(n_before + n_after + 1, np.nan)
    lo = center - n_before
    hi = center + n_after + 1
    src_lo = max(lo, 0)
    src_hi = min(hi, len(values))
    if src_hi > src_lo:
        out[src_lo - lo: src_hi - lo] = values[src_lo:src_hi]
    return out


def superimpose(snapshots: np.ndarray) -> dict[str, np.ndarray]:
    """Mean and 95% confidence band of aligned snapshots (rows = edges).

    NaN-aware: the count per column reflects how many snapshots cover it.
    """
    snapshots = np.atleast_2d(np.asarray(snapshots, dtype=np.float64))
    count = np.sum(np.isfinite(snapshots), axis=0)
    with np.errstate(invalid="ignore"):
        mean = np.nanmean(snapshots, axis=0)
        std = np.nanstd(snapshots, axis=0)
    ci = 1.96 * std / np.sqrt(np.maximum(count, 1))
    return {"mean": mean, "ci95": ci, "count": count, "std": std}


def amplitude_class_mw(amplitude_w: np.ndarray) -> np.ndarray:
    """1 MW amplitude bins (Figure 11's column classes): floor(|A| / 1 MW)."""
    return np.floor(np.abs(np.asarray(amplitude_w)) / 1e6).astype(np.int64)
