"""Shared vectorized kernels: factorization of key columns.

Factorization (mapping arbitrary key values to dense integer codes) is the
core primitive behind group-by and hash joins.  Implemented with
``numpy.unique`` which sorts once — O(n log n) with no Python-level loop.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map ``values`` to dense codes.

    Returns ``(uniques, codes)`` where ``uniques`` is sorted and
    ``uniques[codes] == values``.
    """
    values = np.asarray(values)
    uniques, codes = np.unique(values, return_inverse=True)
    return uniques, codes.astype(np.intp, copy=False)


def multi_factorize(
    arrays: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], np.ndarray, int]:
    """Factorize a composite key of several parallel arrays.

    Returns ``(key_uniques, codes, n_groups)``:

    * ``key_uniques`` — one array per input holding the key value of each
      group, in group-code order;
    * ``codes`` — dense group code per row;
    * ``n_groups`` — number of distinct composite keys.

    Composite codes are built by mixed-radix combination of per-column codes,
    then re-factorized to be dense.  All arithmetic stays in int64.
    """
    if not arrays:
        raise ValueError("multi_factorize needs at least one key array")
    per_col: list[tuple[np.ndarray, np.ndarray]] = [factorize(a) for a in arrays]
    if len(per_col) == 1:
        uniq, codes = per_col[0]
        return [uniq], codes, len(uniq)

    # Mixed-radix combine: combined = ((c0 * r1) + c1) * r2 + c2 ...
    combined = per_col[0][1].astype(np.int64)
    for uniq, codes in per_col[1:]:
        radix = max(len(uniq), 1)
        combined = combined * radix + codes
    group_keys, group_codes = np.unique(combined, return_inverse=True)
    group_codes = group_codes.astype(np.intp, copy=False)

    # Representative row per group -> per-column key values for each group.
    first_row = np.empty(len(group_keys), dtype=np.intp)
    # reversed so the FIRST occurrence wins
    first_row[group_codes[::-1]] = np.arange(len(combined) - 1, -1, -1)
    key_uniques = [
        uniq[codes[first_row]] for uniq, codes in per_col
    ]
    return key_uniques, group_codes, len(group_keys)


def lex_sorted(arrays: Sequence[np.ndarray]) -> bool:
    """True when rows are lexicographically non-decreasing by ``arrays``.

    The O(n) sortedness probe behind the sorted-path group-by kernel: one
    vectorized pass per key column, no sort.  Float columns containing NaN
    report ``False`` (NaN ordering under ``np.unique`` — all NaNs collapse
    to one group — cannot be reproduced by run-length detection, so such
    keys must take the generic kernel).
    """
    if not arrays:
        raise ValueError("lex_sorted needs at least one key array")
    n = len(arrays[0])
    if n <= 1:
        return all(
            a.dtype.kind != "f" or not np.isnan(a).any() for a in arrays
        )
    for a in arrays:
        if a.dtype.kind == "f" and np.isnan(a).any():
            return False
    # lexicographic non-decreasing: evaluate from the least-significant key
    # upward — rows r,r+1 are ordered iff k0 rises, or ties and the rest is
    # ordered.
    ok = np.ones(n - 1, dtype=bool)
    for a in reversed([np.asarray(a) for a in arrays]):
        ok = (a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & ok)
    return bool(ok.all())


def run_starts(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Start offset of every distinct-key run in row-sorted key columns.

    For input already sorted by ``arrays`` (see :func:`lex_sorted`) the runs
    *are* the groups, in exactly the order the sort-based kernel would emit
    them — so boundaries come from one vectorized comparison pass instead of
    a factorize + argsort.
    """
    if not arrays:
        raise ValueError("run_starts needs at least one key array")
    n = len(arrays[0])
    if n == 0:
        return np.empty(0, dtype=np.intp)
    change = np.zeros(n - 1, dtype=bool)
    for a in arrays:
        a = np.asarray(a)
        change |= a[1:] != a[:-1]
    return np.flatnonzero(np.r_[True, change]).astype(np.intp, copy=False)
