"""Table persistence: compressed NPZ archives and CSV for the log-style data.

NPZ (``numpy.savez_compressed``) is the pipeline artifact cache's entry
format (dataset shards are ``.rcs``, :mod:`repro.frame.columnar`);
CSV matches the scheduler-allocation and XID-log datasets (C, D, E), which
the artifact appendix stores as CSV.  CSV is write-only here: nothing in
the stack reads its own exports back.
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


def load_npz(path: str | os.PathLike) -> Table:
    """Load a table written by :func:`save_npz` (column order = file order)."""
    with zipfile.ZipFile(path) as zf:
        names = [n[:-4] for n in zf.namelist() if n.endswith(".npy")]
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
