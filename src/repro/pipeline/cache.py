"""Content-addressed on-disk artifact cache for pipeline stages.

Each cached artifact is one compressed NPZ file addressed by the SHA-256 of
its *provenance* (a :func:`repro.plan.cache_key`): the simulation spec, the
stage name and parameters, and the chunk's time window.  Because every input that determines a chunk's
content is folded into the key, a cache entry can never be stale — changing
the spec, the stage, or the chunk simply addresses a different file.  The
layout mirrors git's object store (``<2-hex-prefix>/<hash>.npz``) so a year
of chunk artifacts never piles thousands of files into one directory.

Writes go through :func:`~repro.frame.io.replace_file`, whose temp file
is named per process and per thread, so concurrent pipeline workers —
threads or processes — can share one cache directory: the worst case is
two workers computing the same artifact and one rename winning.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.frame.io import load_npz, save_npz
from repro.frame.table import Table


class ArtifactCache:
    """A directory of content-addressed table artifacts.

    >>> cache = ArtifactCache(tmpdir)
    >>> key = cache_key(spec, stage="cluster_power", window=(0.0, 86400.0))
    >>> cache.get(key)            # None on a cold cache
    >>> cache.put(key, table)     # returns bytes written
    >>> cache.get(key)            # Table, bit-identical to what was put
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:
        return f"ArtifactCache({str(self.root)!r})"

    def path(self, key: str) -> Path:
        """Filesystem path an artifact with ``key`` would live at."""
        if len(key) < 8 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}.npz"

    def get(self, key: str) -> Table | None:
        """The cached table, or None on a miss (or an unreadable entry)."""
        p = self.path(key)
        if not p.exists():
            return None
        try:
            return load_npz(p)
        except Exception:
            # a torn entry (e.g. process killed mid-rename on a non-POSIX
            # filesystem) is treated as a miss and overwritten
            return None

    def put(self, key: str, table: Table) -> int:
        """Store ``table`` under ``key``; returns bytes on disk."""
        return save_npz(table, self.path(key))
