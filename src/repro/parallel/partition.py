"""Time-partitioned on-disk datasets (one columnar shard per partition).

The analogue of the paper's "one parquet file per day": a directory holding
numbered shards plus a JSON manifest recording each shard's time range, row
count, byte size, storage format, and **zone map** (per-column min / max /
null count / sorted flag).  Shards are read lazily, so a year-scale dataset
never has to fit in memory at once.

Shards are ``.rcs`` columnar files (:mod:`repro.frame.columnar`): reads
mmap the file and hand back zero-copy column views, so a projected read
touches only the requested columns' pages.  It is the only shard format:
opening a manifest that lists anything else, or a shard without a zone
map, raises :class:`~repro.frame.encodings.ColumnarFormatError`.

Pushdown enters here:

* **projection** — ``read(i, columns=[...])`` maps/extracts only the named
  columns;
* **predicate** — :meth:`select_time` / :meth:`select_where` prune whole
  shards from the manifest's zone maps *before any byte of them is
  mapped*, and :meth:`read_time_range` slices surviving shards with two
  ``searchsorted`` probes when the time column is sorted.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path

import numpy as np

from repro.frame.columnar import (TIME_COLUMN, load_rcs, open_rcs,
                                  save_rcs, zone_map)
from repro.frame.encodings import ColumnarFormatError
from repro.frame.io import replace_file
from repro.frame.table import Table, concat

_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class PartitionMeta:
    """Manifest entry for one shard.

    ``zone`` is the shard's zone map; ``format`` names the on-disk
    encoding (always ``rcs`` — recorded so a reader can reject a manifest
    it does not understand); ``enc`` maps the shard's *compressed* columns
    to their codecs (absent/empty when every column is raw).
    """

    index: int
    filename: str
    t_begin: float
    t_end: float
    n_rows: int
    n_bytes: int
    zone: dict = field(compare=False)
    format: str = "rcs"
    enc: dict | None = field(default=None, compare=False)


class PartitionedDataset:
    """A directory of ordered table shards.

    Create with :meth:`create`, append shards with :meth:`append`, and open
    an existing one with the constructor.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        manifest = self.root / _MANIFEST
        if not manifest.exists():
            raise FileNotFoundError(
                f"no dataset at {self.root} (missing {_MANIFEST}); "
                "use PartitionedDataset.create()"
            )
        raw = json.loads(manifest.read_text())
        self.name: str = raw["name"]
        #: bumped by :meth:`compact`; compacted shard filenames carry it so
        #: they can never collide with live pre-compaction files
        self.generation: int = int(raw.get("generation", 0))
        for p in raw["partitions"]:
            zoned = p.get("zone") is not None
            if p.get("format") != "rcs" or not zoned:
                raise ColumnarFormatError(
                    f"{manifest}: shard {p.get('filename')!r} has format "
                    f"{p.get('format')!r}{'' if zoned else ' and no zone map'}"
                    "; only zone-mapped 'rcs' shards can be opened"
                )
        self.partitions: list[PartitionMeta] = [
            PartitionMeta(**p) for p in raw["partitions"]
        ]

    # ---------------- creation ----------------

    @classmethod
    def create(cls, root: str | os.PathLike, name: str) -> "PartitionedDataset":
        """Initialize an empty dataset directory (fails if one exists)."""
        root = Path(root)
        manifest = root / _MANIFEST
        if manifest.exists():
            raise FileExistsError(f"dataset already exists at {root}")
        payload = json.dumps({"name": name, "partitions": []}).encode()
        replace_file(manifest, lambda f: f.write(payload))
        return cls(root)

    def append(
        self, table: Table, t_begin: float, t_end: float
    ) -> PartitionMeta:
        """Write ``table`` as the next shard covering ``[t_begin, t_end)``.

        Shards must be appended in time order (enforced) so that binary
        search over the manifest stays valid.  The shard's zone map is
        computed once and persisted both in the manifest (for pre-read
        pruning) and in the file footer.
        """
        if self.partitions and t_begin < self.partitions[-1].t_end:
            raise ValueError(
                f"partition [{t_begin}, {t_end}) overlaps previous "
                f"(ends at {self.partitions[-1].t_end})"
            )
        if t_end <= t_begin:
            raise ValueError("partition must have positive time extent")
        meta = self._write_shard(table, len(self.partitions),
                                 float(t_begin), float(t_end))
        self.partitions.append(meta)
        self._flush()
        return meta

    def _shard_name(self, index: int) -> str:
        if self.generation == 0:
            return f"part-{index:05d}.rcs"
        return f"part-g{self.generation:03d}-{index:05d}.rcs"

    def _write_shard(
        self, table: Table, index: int, t_begin: float, t_end: float
    ) -> PartitionMeta:
        """Write one shard file and build its manifest entry."""
        fname = self._shard_name(index)
        zones = zone_map(table)
        n_bytes = save_rcs(table, self.root / fname, zones=zones)
        codecs = open_rcs(self.root / fname).codecs
        enc = {c: k for c, k in codecs.items() if k != "raw"} or None
        return PartitionMeta(index, fname, t_begin, t_end, table.n_rows,
                             n_bytes, zone=zones, enc=enc)

    def _flush(self) -> None:
        """Commit the manifest with :func:`~repro.frame.io.replace_file`.

        A reader that opens the dataset mid-write sees either the old or
        the new manifest, never a torn one — the invariant
        :meth:`compact` relies on to swap shard sets under live readers —
        and the shards it lists were fsynced before it was.
        """
        payload = json.dumps(
            {
                "name": self.name,
                "generation": self.generation,
                "partitions": [asdict(p) for p in self.partitions],
            }
        ).encode()
        replace_file(self.root / _MANIFEST, lambda f: f.write(payload))

    # ---------------- access ----------------

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    @property
    def n_rows(self) -> int:
        """Total rows across shards (from the manifest, no I/O)."""
        return sum(p.n_rows for p in self.partitions)

    @property
    def n_bytes(self) -> int:
        """Total bytes on disk."""
        return sum(p.n_bytes for p in self.partitions)

    @property
    def column_names(self) -> list[str]:
        """Column names from the first shard's zone map (no shard is
        opened; empty for a dataset with no shards)."""
        return list(self.partitions[0].zone) if self.partitions else []

    def read(self, index: int) -> Table:
        """Load one whole shard (a projected read is
        :meth:`read_time_range` with ``columns``)."""
        return load_rcs(self.root / self.partitions[index].filename)

    def read_time_range(
        self,
        index: int,
        t_begin: float,
        t_end: float,
        columns: list[str] | None = None,
    ) -> Table:
        """One shard's rows with ``t_begin <= TIME_COLUMN < t_end``,
        projected.

        When the shard's zone map marks the time column sorted, rows are
        sliced with two ``searchsorted`` probes (zero-copy for raw
        columns); otherwise a boolean mask is applied.

        **Compaction tolerance**: if the shard file vanished under this
        handle (a concurrent :meth:`compact` swapped the manifest and
        unlinked the superseded generation), the read retries against a
        freshly re-read manifest instead of raising ``FileNotFoundError``
        — the rows are reconstructed from whichever new shards now cover
        this shard's declared time extent.  The handle's own (stale)
        manifest is deliberately left untouched, so a caller iterating
        shard indices it selected before the swap keeps getting each old
        shard's exact row set, never a mix of generations.
        """
        meta = self.partitions[index]
        try:
            return self._read_time_range_meta(meta, t_begin, t_end, columns)
        except FileNotFoundError:
            return self._reread_time_range(meta, t_begin, t_end, columns)

    def _read_time_range_meta(
        self,
        meta: PartitionMeta,
        t_begin: float,
        t_end: float,
        columns: list[str] | None,
    ) -> Table:
        return open_rcs(self.root / meta.filename).read_time_range(
            t_begin, t_end, columns
        )

    def _reread_time_range(
        self,
        meta: PartitionMeta,
        t_begin: float,
        t_end: float,
        columns: list[str] | None,
    ) -> Table:
        """Recover one vanished shard's slice from the current manifest.

        The requested range is clamped to the old shard's declared extent
        (rows outside it live in *other* old shards, which the caller
        reads separately), then served from the new generation's shards.
        Compaction merges and stably re-sorts by time, so for time-sorted
        datasets the recovered rows are bit-identical — values *and*
        order — to what the vanished shard would have returned.  A
        further mid-retry swap is tolerated by re-reading the manifest up
        to twice more before the error is allowed to propagate.
        """
        lo = max(t_begin, meta.t_begin)
        hi = min(t_end, meta.t_end)
        last_err: FileNotFoundError | None = None
        for _ in range(3):
            try:
                fresh = PartitionedDataset(self.root)
                if not fresh.partitions:
                    break
                if lo >= hi:
                    # nothing can overlap: return an empty projected slice
                    return fresh._read_time_range_meta(
                        fresh.partitions[0], -np.inf, -np.inf, columns
                    )
                parts = [
                    fresh._read_time_range_meta(
                        fresh.partitions[j], lo, hi, columns
                    )
                    for j in fresh.select_time(lo, hi)
                ]
                if not parts:
                    return fresh._read_time_range_meta(
                        fresh.partitions[0], -np.inf, -np.inf, columns
                    )
                return parts[0] if len(parts) == 1 else concat(parts)
            except FileNotFoundError as err:
                last_err = err
        raise last_err or FileNotFoundError(
            f"shard {meta.filename} vanished and {self.root} is now empty"
        )

    def time_bounds(self, index: int) -> tuple[float, float, bool]:
        """(lo, hi, inclusive_hi) pruning bounds for one shard: the zone
        map's actual data min/max when it has any, else the partition's
        declared half-open extent."""
        meta = self.partitions[index]
        zone = meta.zone.get(TIME_COLUMN)
        if zone is not None and zone["min"] is not None:
            return float(zone["min"]), float(zone["max"]), True
        return meta.t_begin, meta.t_end, False

    def select_time(self, t_begin: float, t_end: float) -> list[int]:
        """Indices of shards whose rows can overlap ``[t_begin, t_end)``.

        Uses zone maps (actual per-shard data bounds) — tighter than the
        declared partition extents, so e.g. a shard covering a drain
        window with no samples in the probe range is skipped without
        mapping a byte.
        """
        out = []
        for p in self.partitions:
            if p.n_rows == 0:
                continue
            lo, hi, incl = self.time_bounds(p.index)
            if lo < t_end and (hi >= t_begin if incl else hi > t_begin):
                out.append(p.index)
        return out

    def select_where(self, column: str, lo: float, hi: float) -> list[int]:
        """Indices of shards whose ``column`` zone overlaps ``[lo, hi]``.

        The node/cluster-filter analogue of :meth:`select_time`: a shard
        whose zone map proves every value falls outside the closed range
        is pruned.  Shards without a zone for ``column`` are kept (cannot
        prove absence).
        """
        out = []
        for p in self.partitions:
            if p.n_rows == 0:
                continue
            zone = p.zone.get(column)
            if zone is not None and zone["min"] is not None:
                if zone["min"] > hi or zone["max"] < lo:
                    continue
            out.append(p.index)
        return out

    def to_table(self) -> Table:
        """Materialize the whole dataset (small datasets / tests only).

        Every shard is read, and one :func:`~repro.frame.table.concat`
        copies the pieces into a table of owned arrays.
        """
        if not self.partitions:
            raise ValueError("empty dataset")
        return concat([self.read(i) for i in range(self.n_partitions)])

    # ---------------- maintenance ----------------

    def encoding_summary(self) -> dict[str, int]:
        """``{codec: column count}`` across all shards (``raw`` included).

        Manifest-only — no shard is opened.
        """
        out: dict[str, int] = {}
        for p in self.partitions:
            enc = p.enc or {}
            out["raw"] = out.get("raw", 0) + (len(p.zone) - len(enc))
            for codec in enc.values():
                out[codec] = out.get(codec, 0) + 1
        return out

    def compact(self, target_rows: int | None = None) -> dict:
        """Merge runs of small shards into larger sorted ones, in place.

        Streaming appends leave datasets as many small shards (one per
        checkpoint flush), which blunts pushdown: more manifest entries
        to prune, more files to open, and — when flushes interleaved
        around window boundaries — time columns that lost their
        ``sorted`` zone flag, knocking reads off the ``searchsorted``
        fast path.  Compaction restores the invariants dataset writers
        establish: consecutive shards are concatenated (greedily, up to
        ``target_rows`` rows per output; default: the largest current
        shard size), re-sorted stably by :data:`TIME_COLUMN`, re-encoded
        (``REPRO_RCS_COMPRESSION`` applies), and their zone maps rebuilt.
        Single shards already sorted and big enough are left untouched —
        compacting an already-compact dataset is a no-op.

        **Concurrent-reader safety**: merged shards are written to fresh
        generation-stamped filenames, the manifest is atomically
        replaced, and only then are the superseded files unlinked.  A
        reader holding a pre-compaction mmap keeps reading valid bytes
        (POSIX keeps unlinked inodes alive until the last mapping goes),
        and a reader re-opening the dataset sees either the old complete
        shard set or the new one, never a mix.

        Returns a stats dict: shard counts and bytes before/after, and
        how many shards were rewritten.
        """
        if target_rows is None:
            target_rows = max((p.n_rows for p in self.partitions),
                              default=0)
        before = {"n_partitions": self.n_partitions,
                  "n_bytes": self.n_bytes}

        groups: list[list[PartitionMeta]] = []
        cur: list[PartitionMeta] = []
        rows = 0
        for p in self.partitions:
            cur.append(p)
            rows += p.n_rows
            if rows >= target_rows:
                groups.append(cur)
                cur, rows = [], 0
        if cur:
            groups.append(cur)

        def _needs_rewrite(group: list[PartitionMeta]) -> bool:
            if len(group) > 1:
                return True
            p = group[0]
            zone = p.zone.get(TIME_COLUMN)
            # a lone unsorted shard is rewritten to restore the fast path
            return zone is not None and not zone["sorted"]

        if not any(_needs_rewrite(g) for g in groups):
            return {"before": before, "n_partitions": self.n_partitions,
                    "n_bytes": self.n_bytes, "rewritten": 0,
                    "generation": self.generation}

        self.generation += 1
        new_parts: list[PartitionMeta] = []
        obsolete: list[str] = []
        rewritten = 0
        for group in groups:
            idx = len(new_parts)
            if not _needs_rewrite(group):
                new_parts.append(replace(group[0], index=idx))
                continue
            merged = concat(
                [load_rcs(self.root / p.filename) for p in group]
            )
            if TIME_COLUMN in merged.columns:
                order = np.argsort(
                    np.asarray(merged[TIME_COLUMN]), kind="stable"
                )
                merged = merged.take(order)
            meta = self._write_shard(
                merged, idx, group[0].t_begin, group[-1].t_end
            )
            new_parts.append(meta)
            obsolete.extend(p.filename for p in group)
            rewritten += len(group)

        self.partitions = new_parts
        self._flush()
        # unlink strictly after the manifest rename: concurrent readers
        # holding old mmaps stay valid, re-openers never see a gap
        for fname in obsolete:
            (self.root / fname).unlink(missing_ok=True)
        return {
            "before": before,
            "n_partitions": self.n_partitions,
            "n_bytes": self.n_bytes,
            "rewritten": rewritten,
            "generation": self.generation,
        }
