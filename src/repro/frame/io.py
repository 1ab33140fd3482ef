"""Table persistence: compressed NPZ archives and CSV for the log-style data.

NPZ (``numpy.savez_compressed``) is the pipeline artifact cache's entry
format (dataset shards are ``.rcs``, :mod:`repro.frame.columnar`);
CSV matches the scheduler-allocation and XID-log datasets (C, D, E), which
the artifact appendix stores as CSV.  CSV is write-only here: nothing in
the stack reads its own exports back.  :func:`replace_file` commits
every whole file the stack writes.
"""

from __future__ import annotations

import io
import os
import threading
import zipfile
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.frame.table import Table


def replace_file(path: str | os.PathLike,
                 write: Callable[[BinaryIO], object]) -> int:
    """Make what ``write(f)`` writes the whole of ``path``; returns bytes
    on disk.

    ``write`` fills a same-directory temp file named per process and per
    thread, which is fsynced and renamed over ``path``; then the directory
    is fsynced.  Readers see the old file or the new one, never a torn
    one.  If anything raises, the temp file goes and ``path`` is as it
    was.  The file has a plain ``open``'s mode (``0o666 & ~umask``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return path.stat().st_size


def save_npz(table: Table, path: str | os.PathLike) -> int:
    """Write ``table`` to a compressed ``.npz`` through
    :func:`replace_file`; returns bytes on disk."""
    return replace_file(
        path, lambda f: np.savez_compressed(f, **table.as_dict()))


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
    """Write ``table`` as a headered CSV through :func:`replace_file`;
    returns bytes written.

    Floats use ``repr`` precision; strings must not contain commas or
    newlines (true of every identifier the twin generates).
    """
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
    data = buf.getvalue().encode()
    return replace_file(path, lambda f: f.write(data))
