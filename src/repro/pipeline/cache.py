"""Content-addressed on-disk artifact cache for pipeline stages.

Each cached artifact is one compressed NPZ file addressed by the SHA-256 of
its *provenance*: the simulation spec, the stage name and parameters, and
the chunk's time window.  Because every input that determines a chunk's
content is folded into the key, a cache entry can never be stale — changing
the spec, the stage, or the chunk simply addresses a different file.  The
layout mirrors git's object store (``<2-hex-prefix>/<hash>.npz``) so a year
of chunk artifacts never piles thousands of files into one directory.

Writes are atomic (temp file + rename), so concurrent pipeline workers and
even concurrent processes can share one cache directory: the worst case is
two workers computing the same artifact and one rename winning.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from repro.frame.encodings import compression_mode
from repro.frame.io import load_npz, save_npz
from repro.frame.table import Table

#: bump when stage semantics change in a way that invalidates old artifacts
#: (2: fused-stage keys carry the projection and time-range pushdown;
#:  3: keys carry the column-compression mode, so runs against compressed
#:  and raw stores address disjoint artifacts)
CACHE_FORMAT_VERSION = 3


def _canonical(obj, nested: bool = False) -> object:
    """Reduce ``obj`` to JSON-serializable canonical form for hashing.

    A dataclass is tagged with its class name; one nested anywhere inside
    another flattens to a plain dict of its fields (``nested``).  Existing
    digests depend on exactly that shape — pipeline artifacts on disk are
    addressed by them.
    """
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; avoids 0.1+0.2 style surprises
        return repr(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        flat = {
            f.name: _canonical(getattr(obj, f.name), True)
            for f in dataclasses.fields(obj)
        }
        if nested:
            return flat
        return {"__dataclass__": type(obj).__name__, "fields": flat}
    if isinstance(obj, dict):
        return {str(k): _canonical(v, nested) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v, nested) for v in obj]
    raise TypeError(f"cannot build a cache key from {type(obj).__name__}: {obj!r}")


def cache_key(*parts, **fields) -> str:
    """SHA-256 hex digest of the canonical JSON of ``parts`` and ``fields``.

    Accepts strings, numbers, tuples/lists, dicts, and dataclasses (e.g.
    :class:`~repro.datasets.generate.SimulationSpec`).  The active
    ``REPRO_RCS_COMPRESSION`` mode is folded into every key: stage outputs
    are required to be bit-identical across compressed and raw stores (and
    the differential tests prove it), but sharing artifacts across the two
    would mask exactly the class of encode/decode bug those tests exist to
    catch.
    """
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "compression": compression_mode(),
        "parts": _canonical(list(parts)),
        "fields": _canonical(fields),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


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
        return f"ArtifactCache({str(self.root)!r}, entries={self.n_entries})"

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
        """Store ``table`` under ``key`` atomically; returns bytes on disk."""
        return save_npz(table, self.path(key), atomic=True)

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    # ---------------- maintenance ----------------

    def _entries(self) -> list[Path]:
        return sorted(self.root.glob("??/*.npz"))

    @property
    def n_entries(self) -> int:
        return len(self._entries())

    @property
    def n_bytes(self) -> int:
        """Total bytes across cached artifacts."""
        return sum(p.stat().st_size for p in self._entries())

    def clear(self) -> int:
        """Delete every artifact; returns the number removed."""
        entries = self._entries()
        for p in entries:
            p.unlink()
        for d in self.root.glob("??"):
            if d.is_dir() and not any(d.iterdir()):
                d.rmdir()
        return len(entries)
