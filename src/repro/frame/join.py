"""Vectorized joins: hash equi-join and interval join.

The interval join is the workhorse of the paper's pipeline: it assigns each
(node, timestamp) telemetry sample the job allocation covering it (Datasets
3-7 of the artifact appendix are all built this way).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.frame.ops import factorize
from repro.frame.table import Table

#: Disjoint-range offset used to linearize (group, time) composite keys.
#: Times must satisfy ``0 <= t < _TIME_SPAN`` (a year is ~3.2e7 s, so any
#: simulation timestamp fits with 2 orders of magnitude to spare).
_TIME_SPAN = float(2**32)


def _composite_codes(
    left: Table, right: Table, on: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Dense int64 composite key codes comparable across both tables."""
    lcodes = np.zeros(left.n_rows, dtype=np.int64)
    rcodes = np.zeros(right.n_rows, dtype=np.int64)
    for name in on:
        both = np.concatenate([left[name], right[name]])
        uniq, codes = np.unique(both, return_inverse=True)
        radix = max(len(uniq), 1)
        lcodes = lcodes * radix + codes[: left.n_rows]
        rcodes = rcodes * radix + codes[left.n_rows:]
    return lcodes, rcodes


def join(
    left: Table,
    right: Table,
    on: str | Sequence[str],
    how: str = "inner",
) -> Table:
    """Equi-join two tables on one or more key columns.

    ``how`` is ``"inner"`` or ``"left"``.  For a left join, unmatched rows
    receive NaN in float columns, -1 in integer columns, and ``""`` in string
    columns from the right side.  Right-side columns that collide with
    left-side names get ``_right`` appended.  Output preserves the order of
    the left table (duplicated per right match).
    """
    on_names = [on] if isinstance(on, str) else list(on)
    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    for name in on_names:
        if name not in left or name not in right:
            raise KeyError(f"join key {name!r} missing from one side")

    lkey, rkey = _composite_codes(left, right, on_names)
    r_order = np.argsort(rkey, kind="stable")
    rk_sorted = rkey[r_order]
    lo = np.searchsorted(rk_sorted, lkey, side="left")
    hi = np.searchsorted(rk_sorted, lkey, side="right")
    counts = hi - lo

    matched = counts > 0
    if how == "left":
        out_counts = np.where(matched, counts, 1)
    else:
        out_counts = counts

    total = int(out_counts.sum())
    left_idx = np.repeat(np.arange(left.n_rows, dtype=np.intp), out_counts)

    # build right indices: within each left row's block, consecutive offsets
    block_starts = np.zeros(left.n_rows, dtype=np.int64)
    np.cumsum(out_counts[:-1], out=block_starts[1:])
    offsets = np.arange(total, dtype=np.int64) - np.repeat(block_starts, out_counts)
    right_pos = np.repeat(lo, out_counts) + offsets
    if how == "left":
        valid = np.repeat(matched, out_counts)
        right_pos = np.where(valid, right_pos, 0)
        right_idx = r_order[right_pos]
    else:
        valid = np.ones(total, dtype=bool)
        right_idx = r_order[right_pos]

    out: dict[str, np.ndarray] = {}
    for name in left.columns:
        out[name] = left[name][left_idx]
    for name in right.columns:
        if name in on_names:
            continue
        col = right[name][right_idx]
        if how == "left" and not valid.all():
            col = _mask_fill(col, ~valid)
        out_name = name if name not in out else name + "_right"
        out[out_name] = col
    return Table(out)


def _mask_fill(col: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """Replace rows flagged ``bad`` with the dtype's missing marker."""
    col = col.copy()
    if col.dtype.kind == "f":
        col[bad] = np.nan
    elif col.dtype.kind in "iu":
        col = col.astype(np.int64)
        col[bad] = -1
    elif col.dtype.kind in "US":
        col[bad] = ""
    elif col.dtype.kind == "b":
        col[bad] = False
    return col


def _empty_like(col: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=col.dtype)
    return _mask_fill(out, np.ones(n, dtype=bool))


def interval_join(
    samples: Table,
    intervals: Table,
    *,
    time: str,
    begin: str,
    end: str,
    by: str | None = None,
    id_columns: Sequence[str] = ("allocation_id",),
) -> Table:
    """Assign each sample the interval (job allocation) covering it.

    A sample covered by no interval gets -1 in integer id columns and
    ``""`` in string ones.

    Parameters
    ----------
    samples:
        Table with a ``time`` column and, if ``by`` is given, a group column
        (e.g. ``node``).
    intervals:
        Table with ``begin``/``end`` columns (half-open ``[begin, end)``),
        the same ``by`` column, and the ``id_columns`` to propagate.  Within
        each ``by`` group the intervals must be non-overlapping.

    Notes
    -----
    Fully vectorized via the disjoint-range linearization trick: the
    composite key ``group_code * 2**32 + t`` is exactly representable in
    float64 for any simulation timestamp, so a single ``searchsorted`` finds
    the covering interval for every sample at once.
    """
    if samples.n_rows == 0 or intervals.n_rows == 0:
        out = {name: samples[name] for name in samples.columns}
        for idc in id_columns:
            proto = intervals[idc] if idc in intervals else np.empty(0, np.int64)
            out[idc] = _empty_like(proto, samples.n_rows)
        return Table(out)

    ts = np.asarray(samples[time], dtype=np.float64)
    tb = np.asarray(intervals[begin], dtype=np.float64)
    te = np.asarray(intervals[end], dtype=np.float64)
    if ts.size and (ts.min() < 0 or ts.max() >= _TIME_SPAN):
        raise ValueError("sample times out of supported range [0, 2**32)")

    if by is not None:
        both = np.concatenate([samples[by], intervals[by]])
        _, codes = factorize(both)
        s_code = codes[: samples.n_rows].astype(np.float64)
        i_code = codes[samples.n_rows:].astype(np.float64)
        key_s = s_code * _TIME_SPAN + ts
        key_b = i_code * _TIME_SPAN + tb
        key_e = i_code * _TIME_SPAN + te
    else:
        key_s, key_b, key_e = ts, tb, te
        s_code = i_code = None

    order = np.argsort(key_b, kind="stable")
    kb_sorted = key_b[order]
    ke_sorted = key_e[order]

    pos = np.searchsorted(kb_sorted, key_s, side="right") - 1
    candidate = pos >= 0
    pos_safe = np.where(candidate, pos, 0)
    covered = candidate & (key_s < ke_sorted[pos_safe])
    if by is not None:
        # same-group check is implied by key_s < key_e only when the interval
        # is in the same group; a previous group's interval has key_e far
        # below key_s, so `covered` is already correct — assert in debug.
        pass

    out = {name: samples[name] for name in samples.columns}
    src = order[pos_safe]
    for idc in id_columns:
        col = intervals[idc][src]
        col = _mask_fill(np.asarray(col), ~covered) if not covered.all() else np.asarray(col).copy()
        if col.dtype.kind in "iu":
            col[~covered] = -1
        out[idc] = col
    return Table(out)
