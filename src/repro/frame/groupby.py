"""Vectorized group-by aggregation.

Two kernels produce bit-identical results:

* **generic** — the classic sort-based kernel: factorize keys to dense
  codes, ``argsort`` the codes once, then compute every aggregation with
  ``ufunc.reduceat`` over the code-sorted columns.
* **sorted path** — when the rows are already lexicographically ordered by
  the keys (telemetry is time-ordered per node by construction), group
  boundaries come from one run-length pass (:func:`~repro.frame.ops.run_starts`)
  and every aggregation reduces the columns *in place*: no factorize, no
  argsort, no per-column gather.  Because ``reduceat`` consumes the very
  same values in the very same order as the generic kernel, the outputs are
  bitwise equal (asserted by ``tests/frame/test_sorted_groupby.py``).

``presorted=None`` (the default) probes sortedness in O(n) and picks the
kernel automatically; ``True`` declares it (zero-cost, caller's contract);
``False`` skips the run-length path.  A single key column additionally
skips factorization even when unsorted: one stable value ``argsort``
replaces ``np.unique`` + code ``argsort``.  So do several integer key
columns, combined mixed-radix into one int64 first (a time-major shard
grouped by ``(node, window)``): one sort where factorizing takes four —
a radix sort when the combined key fits 16 bits.

No per-group Python loop is executed for the built-in aggregations.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.frame.ops import lex_sorted, multi_factorize, run_starts
from repro.frame.table import Table

#: Supported aggregation names.
AGGREGATIONS = ("count", "sum", "mean", "min", "max", "std")


def _grouped_sum(sorted_vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    return np.add.reduceat(sorted_vals, starts)


def _nan_free(arr: np.ndarray) -> bool:
    """True when a key column is safe for the no-factorize kernels.

    ``np.unique`` collapses every NaN into one group; run-length detection
    and value argsort cannot reproduce that, so NaN-bearing float keys must
    take the generic kernel.
    """
    return arr.dtype.kind != "f" or not np.isnan(arr).any()


class _GroupPlan:
    """Resolved grouping: boundaries, counts, key values, row order.

    ``order is None`` means the rows are already in group order (the sorted
    path) and value columns are consumed without a gather.
    """

    __slots__ = ("starts", "counts", "key_uniques", "order")

    def __init__(self, starts, counts, key_uniques, order):
        self.starts = starts
        self.counts = counts
        self.key_uniques = key_uniques
        self.order = order


def _plan_sorted(key_arrays: list[np.ndarray]) -> _GroupPlan:
    """Sorted path: run-length boundaries, identity row order."""
    n = len(key_arrays[0])
    starts = run_starts(key_arrays)
    counts = np.diff(np.append(starts, n)).astype(np.intp, copy=False)
    key_uniques = [a[starts] for a in key_arrays]
    return _GroupPlan(starts, counts, key_uniques, order=None)


def _plan_single_key(values: np.ndarray,
                     key_arrays: list[np.ndarray]) -> _GroupPlan:
    """Unsorted keys encoded as one array ``values``: one stable value
    argsort, no factorize.

    ``values`` is the key itself, or an order-preserving integer encoding
    of one or more (:func:`_mixed_radix`).  A stable argsort of it visits rows
    in exactly the order a stable argsort of the dense codes would (codes
    are an order-preserving relabeling), so downstream ``reduceat``
    results are bit-identical to the factorize-based kernel's.
    """
    order = np.argsort(values, kind="stable")
    starts = run_starts([values[order]])
    counts = np.diff(np.append(starts, len(values))).astype(np.intp, copy=False)
    first = order[starts]
    return _GroupPlan(starts, counts, [a[first] for a in key_arrays],
                      order=order)


def _mixed_radix(key_arrays: list[np.ndarray]) -> np.ndarray | None:
    """Integer keys combined into one int64 that sorts like the keys
    lexicographically: each column minus its minimum, radix max - min + 1.
    None when a key is not integer, holds a value outside int64, or the
    radix product reaches 2**62; uint16 within 2**16, which numpy's stable
    argsort radix-sorts 3-4x faster than it compares shuffled node ids."""
    if any(a.dtype.kind not in "iu" for a in key_arrays):
        return None
    bounds = [(int(a.min()), int(a.max())) for a in key_arrays]
    span = math.prod(hi - lo + 1 for lo, hi in bounds)
    if any(hi >= 2**63 for _, hi in bounds) or span >= 2**62:
        return None
    combined = np.zeros(len(key_arrays[0]), dtype=np.int64)
    for a, (lo, hi) in zip(key_arrays, bounds):
        combined *= hi - lo + 1
        combined += a.astype(np.int64, copy=False)
        combined -= lo
    return combined.astype(np.uint16) if span <= 2**16 else combined


def _plan_generic(key_arrays: list[np.ndarray]) -> _GroupPlan:
    """The factorize + code-argsort kernel (handles NaN keys, any order)."""
    key_uniques, codes, n_groups = multi_factorize(key_arrays)
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=n_groups).astype(np.intp, copy=False)
    starts = np.zeros(n_groups, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return _GroupPlan(starts, counts, key_uniques, order=order)


def _resolve_plan(
    key_arrays: list[np.ndarray], presorted: bool | None
) -> _GroupPlan:
    if presorted is None:
        presorted = lex_sorted(key_arrays)
    if presorted:
        return _plan_sorted(key_arrays)
    combined = _mixed_radix(key_arrays)
    if combined is not None:
        return _plan_single_key(combined, key_arrays)
    if len(key_arrays) == 1 and _nan_free(key_arrays[0]):
        return _plan_single_key(key_arrays[0], key_arrays)
    return _plan_generic(key_arrays)


def group_by(
    table: Table,
    keys: str | Sequence[str],
    aggs: Mapping[str, tuple[str, str] | str],
    presorted: bool | None = None,
) -> Table:
    """Group ``table`` by ``keys`` and compute aggregations.

    Parameters
    ----------
    table:
        Input table.
    keys:
        Key column name or list of names.
    aggs:
        Mapping of *output column name* to either the string ``"count"`` or a
        ``(input_column, aggregation)`` pair, where aggregation is one of
        :data:`AGGREGATIONS`.
    presorted:
        ``True`` declares the rows already lexicographically ordered by
        ``keys`` (keys must be NaN-free), enabling the no-sort run-length
        kernel; ``False`` skips the run-length path; ``None``
        (default) probes sortedness in O(n) and chooses.  Every choice
        produces bit-identical output.

    Returns
    -------
    Table
        One row per distinct key combination, containing the key columns
        followed by the aggregation columns.  Rows are ordered by the
        composite key's dense code order (ascending per-column codes).

    Examples
    --------
    >>> t = Table({"k": np.array([1, 2, 1]), "v": np.array([1.0, 2.0, 3.0])})
    >>> g = group_by(t, "k", {"v_mean": ("v", "mean"), "n": "count"})
    >>> list(g["v_mean"])
    [2.0, 2.0]
    """
    key_names = [keys] if isinstance(keys, str) else list(keys)
    if not key_names:
        raise ValueError("group_by needs at least one key")
    for name in key_names:
        if name not in table:
            raise KeyError(f"key column {name!r} not in table")

    if table.n_rows == 0:
        out_cols: dict[str, np.ndarray] = {
            k: table[k] for k in key_names
        }
        for out_name, spec in aggs.items():
            if spec == "count":
                out_cols[out_name] = np.empty(0, dtype=np.int64)
            else:
                col, how = spec  # type: ignore[misc]
                dtype = np.int64 if how == "count" else np.float64
                out_cols[out_name] = np.empty(0, dtype=dtype)
        return Table(out_cols)

    plan = _resolve_plan([table[name] for name in key_names], presorted)
    starts, counts = plan.starts, plan.counts

    out_cols = {
        name: uniq for name, uniq in zip(key_names, plan.key_uniques)
    }

    # cache group-ordered value columns; several aggs often share one column
    sorted_cache: dict[str, np.ndarray] = {}

    def sorted_col(name: str) -> np.ndarray:
        arr = sorted_cache.get(name)
        if arr is None:
            col = table[name]
            arr = col if plan.order is None else col[plan.order]
            sorted_cache[name] = arr
        return arr

    float_sums: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    def float_sum(name: str, vals: np.ndarray) -> tuple:
        """mean and std of a column share its float64 cast and sums"""
        if name not in float_sums:
            v = vals.astype(np.float64, copy=False)
            float_sums[name] = (v, _grouped_sum(v, starts))
        return float_sums[name]

    for out_name, spec in aggs.items():
        if spec == "count":
            out_cols[out_name] = counts.astype(np.int64)
            continue
        col, how = spec  # type: ignore[misc]
        if col not in table:
            raise KeyError(f"aggregation column {col!r} not in table")
        if how == "count":
            out_cols[out_name] = counts.astype(np.int64)
            continue
        vals = sorted_col(col)
        if how == "sum":
            out_cols[out_name] = _grouped_sum(vals, starts)
        elif how == "mean":
            out_cols[out_name] = float_sum(col, vals)[1] / counts
        elif how == "min":
            out_cols[out_name] = np.minimum.reduceat(vals, starts)
        elif how == "max":
            out_cols[out_name] = np.maximum.reduceat(vals, starts)
        elif how == "std":
            v, s = float_sum(col, vals)
            ss = _grouped_sum(v * v, starts)
            mean = s / counts
            var = ss / counts - mean * mean
            np.maximum(var, 0.0, out=var)  # guard fp cancellation
            out_cols[out_name] = np.sqrt(var)
        else:
            raise ValueError(
                f"unknown aggregation {how!r}; expected one of {AGGREGATIONS}"
            )

    return Table(out_cols)
