"""Table persistence: compressed NPZ archives and CSV for the log-style data.

NPZ (``numpy.savez_compressed``) is the pipeline artifact cache's entry
format (dataset shards are ``.rcs``, :mod:`repro.frame.columnar`);
CSV matches the scheduler-allocation and XID-log datasets (C, D, E), which
the artifact appendix stores as CSV.
"""

from __future__ import annotations

import io
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.frame.table import Table


def save_npz(table: Table, path: str | os.PathLike, atomic: bool = False) -> int:
    """Write ``table`` to a compressed ``.npz``; returns bytes on disk.

    With ``atomic`` the table is written to a same-directory temporary file,
    **fsynced**, and renamed into place, so concurrent readers (e.g.
    artifact-cache lookups from parallel pipeline workers) never observe a
    partial file — and a crash right after the rename cannot leave an empty
    entry behind the new name.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not atomic:
        np.savez_compressed(path, **table.as_dict())
        return path.stat().st_size
    # keep the .npz suffix: numpy appends one to unrecognized extensions
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp.npz")
    try:
        with open(tmp, "wb") as f:
            np.savez_compressed(f, **table.as_dict())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            tmp.unlink()
    return path.stat().st_size


def load_npz(
    path: str | os.PathLike, columns: list[str] | None = None
) -> Table:
    """Load a table written by :func:`save_npz` (column order = file order).

    ``columns`` projects the read: only the named members are extracted
    (zip members are independent, so unrequested columns are never
    decompressed).
    """
    with zipfile.ZipFile(path) as zf:
        names = [n[:-4] for n in zf.namelist() if n.endswith(".npy")]
        if columns is not None:
            missing = [c for c in columns if c not in names]
            if missing:
                raise KeyError(f"no columns {missing} in {path}; have {names}")
            names = list(columns)
        cols: dict[str, np.ndarray] = {}
        for name in names:
            with zf.open(name + ".npy") as member:
                cols[name] = np.lib.format.read_array(
                    member, allow_pickle=False
                )
        return Table(cols)


def write_csv(table: Table, path: str | os.PathLike) -> int:
    """Write ``table`` as a headered CSV; returns bytes written.

    Floats use ``repr`` precision; strings must not contain commas or
    newlines (true of every identifier the twin generates).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = table.columns
    cols = [table[n] for n in names]
    for n, c in zip(names, cols):
        if c.dtype.kind in "US":
            joined = "".join(c.tolist())
            if "," in joined or "\n" in joined:
                raise ValueError(f"string column {n!r} contains CSV delimiters")
    buf = io.StringIO()
    buf.write(",".join(names) + "\n")
    if table.n_rows:
        fmt_cols = []
        for c in cols:
            if c.dtype.kind == "f":
                fmt_cols.append(np.char.mod("%r", c.astype(object)))
            else:
                fmt_cols.append(c.astype(str))
        rows = np.stack(fmt_cols, axis=1)
        for row in rows:
            buf.write(",".join(row) + "\n")
    data = buf.getvalue()
    path.write_text(data)
    return len(data.encode())


def _infer_column(raw: list[str]) -> np.ndarray:
    """Infer int64 / float64 / unicode for a CSV column."""
    try:
        return np.array([int(x) for x in raw], dtype=np.int64)
    except ValueError:
        pass
    try:
        return np.array([float(x) for x in raw], dtype=np.float64)
    except ValueError:
        pass
    return np.array(raw)


def read_csv(path: str | os.PathLike) -> Table:
    """Read a CSV written by :func:`write_csv` with dtype inference."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"empty CSV file: {path}")
    names = lines[0].split(",")
    raw_cols: list[list[str]] = [[] for _ in names]
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValueError(f"ragged CSV row in {path}: {line!r}")
        for col, val in zip(raw_cols, parts):
            col.append(val)
    return Table({n: _infer_column(c) for n, c in zip(names, raw_cols)})
