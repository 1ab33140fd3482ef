"""The :class:`Table` column store.

Design notes (hpc-parallel guide idioms):

* Columns are plain ``numpy.ndarray`` objects; row selection uses numpy fancy
  indexing so a filtered table is produced in one vectorized pass per column.
* ``Table`` never copies columns on construction — callers own the arrays.
  Mutating verbs (``with_column`` etc.) return a new ``Table`` sharing the
  untouched columns (views, not copies).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np


class Table:
    """An ordered mapping of column names to equal-length 1-D numpy arrays."""

    __slots__ = ("_cols", "_n", "_owner")

    def __init__(self, columns: Mapping[str, Any] | None = None):
        self._cols: dict[str, np.ndarray] = {}
        self._n = 0
        self._owner: Any = None
        if columns:
            first = True
            for name, values in columns.items():
                arr = np.asarray(values)
                if arr.ndim != 1:
                    raise ValueError(
                        f"column {name!r} must be 1-D, got shape {arr.shape}"
                    )
                if first:
                    self._n = arr.shape[0]
                    first = False
                elif arr.shape[0] != self._n:
                    raise ValueError(
                        f"column {name!r} has length {arr.shape[0]}, "
                        f"expected {self._n}"
                    )
                self._cols[name] = arr

    # ---------------- basic protocol ----------------

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self._n

    @property
    def columns(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._cols)

    def __len__(self) -> int:
        return self._n

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def __iter__(self):
        return iter(self._cols)

    def __getitem__(self, key):
        """``table[name]`` -> column array; ``table[mask_or_index]`` -> row
        subset as a new ``Table``; ``table[slice]`` -> sliced ``Table``."""
        if isinstance(key, str):
            try:
                return self._cols[key]
            except KeyError:
                raise KeyError(
                    f"no column {key!r}; have {self.columns}"
                ) from None
        if isinstance(key, slice):
            return Table({k: v[key] for k, v in self._cols.items()})
        idx = np.asarray(key)
        if idx.dtype == np.bool_:
            # resolve the mask once, not once per column
            if idx.shape != (self._n,):
                raise IndexError(
                    f"boolean index of shape {idx.shape} does not match "
                    f"{self._n} rows"
                )
            idx = np.flatnonzero(idx)
        return Table({k: v[idx] for k, v in self._cols.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.columns != other.columns or self._n != other._n:
            return False
        for k in self._cols:
            a, b = self._cols[k], other._cols[k]
            if a.dtype.kind == "f" and b.dtype.kind == "f":
                if not np.array_equal(a, b, equal_nan=True):
                    return False
            elif not np.array_equal(a, b):
                return False
        return True

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{k}:{v.dtype}" for k, v in self._cols.items()
        )
        return f"Table({self._n} rows; {cols})"

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialize as a list of row dicts (convenience, not a hot path)."""
        names = self.columns
        cols = [self._cols[n] for n in names]
        return [
            {n: c[i].item() if hasattr(c[i], "item") else c[i] for n, c in zip(names, cols)}
            for i in range(self._n)
        ]

    # ---------------- column verbs ----------------

    def select(self, names: Iterable[str]) -> "Table":
        """Project onto ``names`` (shares the underlying arrays)."""
        return Table({n: self._cols[n] for n in names})

    def drop(self, names: Iterable[str]) -> "Table":
        """All columns except ``names``."""
        dropped = set(names)
        return Table({k: v for k, v in self._cols.items() if k not in dropped})

    def with_column(self, name: str, values: Any) -> "Table":
        """A new table with column ``name`` added or replaced."""
        arr = np.asarray(values)
        if arr.ndim == 0:
            arr = np.full(self._n, arr[()])
        if arr.shape[0] != self._n:
            raise ValueError(
                f"column {name!r} has length {arr.shape[0]}, expected {self._n}"
            )
        cols = dict(self._cols)
        cols[name] = arr
        return Table(cols)

    def with_columns(self, new: Mapping[str, Any]) -> "Table":
        """Add/replace several columns at once."""
        out = self
        for k, v in new.items():
            out = out.with_column(k, v)
        return out

    # ---------------- row verbs ----------------

    def filter(self, mask: Any) -> "Table":
        """Rows where boolean ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_:
            raise TypeError("filter expects a boolean mask; use take() for indices")
        if mask.shape[0] != self._n:
            raise ValueError(
                f"mask length {mask.shape[0]} != row count {self._n}"
            )
        return self[mask]

    def take(self, indices: Any) -> "Table":
        """Rows at integer ``indices`` (fancy indexing; allows repeats)."""
        return self[np.asarray(indices, dtype=np.intp)]

    def head(self, n: int = 5) -> "Table":
        """First ``n`` rows."""
        return self[:n]

    def sort(self, by: str | Sequence[str]) -> "Table":
        """Stable ascending lexicographic sort by one or more key columns.

        With multiple keys the first name is the primary key (numpy's
        ``lexsort`` takes them last-key-primary, so we reverse).
        """
        keys = [by] if isinstance(by, str) else list(by)
        if not keys:
            raise ValueError("sort needs at least one key")
        if len(keys) == 1:
            order = np.argsort(self._cols[keys[0]], kind="stable")
        else:
            order = np.lexsort([self._cols[k] for k in reversed(keys)])
        return self[order]

    def unique(self, column: str) -> np.ndarray:
        """Sorted unique values of a column."""
        return np.unique(self._cols[column])

    # ---------------- misc ----------------

    def retain(self, owner: Any) -> "Table":
        """Pin ``owner`` for this table's lifetime; returns ``self``.

        Used by zero-copy readers (``repro.frame.columnar``) to give a
        table of mmap-backed views explicit ownership of the mapping.
        The column views' ``base`` chains already keep the buffer alive;
        the retained owner makes that lifetime visible and survives even
        if a caller swaps a column array for a copy.  Derived tables
        (filters, slices, projections) rely on the ``base`` chain alone.
        """
        self._owner = owner
        return self

    @property
    def owner(self) -> Any:
        """The retained buffer owner, or None (see :meth:`retain`)."""
        return self._owner

    def __getstate__(self):
        # the owner (e.g. an open mmap) must not ride along through
        # pickle: views serialize as self-contained copies anyway
        return {"_cols": self._cols, "_n": self._n}

    def __setstate__(self, state):
        self._cols = state["_cols"]
        self._n = state["_n"]
        self._owner = None

    def copy(self) -> "Table":
        """Deep copy (fresh arrays)."""
        return Table({k: v.copy() for k, v in self._cols.items()})

    def as_dict(self) -> dict[str, np.ndarray]:
        """The underlying column mapping (shared arrays, shallow copy)."""
        return dict(self._cols)

    def nbytes(self) -> int:
        """Total bytes across all column buffers."""
        return sum(int(v.nbytes) for v in self._cols.values())


def concat(tables: Sequence[Table]) -> Table:
    """Vertically concatenate tables with identical column sets.

    Column order follows the first table; dtypes are promoted by numpy.
    """
    tables = [t for t in tables if t is not None]
    if not tables:
        raise ValueError("concat needs at least one table")
    names = tables[0].columns
    for t in tables[1:]:
        if set(t.columns) != set(names):
            raise ValueError(
                f"column mismatch: {sorted(names)} vs {sorted(t.columns)}"
            )
    return Table(
        {n: np.concatenate([t[n] for t in tables]) for n in names}
    )

