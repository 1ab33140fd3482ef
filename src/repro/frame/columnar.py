"""The ``.rcs`` columnar shard format: footer-indexed, mmap-read, zero-copy.

Layout of a *Repro Columnar Shard* file::

    +--------+----------------+----------------+-----+--------+-------+--------+-------+
    | magic  | column 0 bytes | column 1 bytes | ... | footer | crc32 | u64 len| magic |
    +--------+----------------+----------------+-----+--------+-------+--------+-------+

Each column is either the raw little-endian buffer of one contiguous 1-D
numpy array, padded to a 64-byte boundary so every mapped view is
cache-line aligned, or a **compressed encoding** of it —
delta/zigzag/varint for sorted integer-like columns, quantized-delta and
XOR-shuffle for floats, dictionary coding for low-cardinality keys, and
zlib framing (see :mod:`repro.frame.encodings`).  The footer
is JSON holding, per column: name, dtype, byte offset, byte length, a
**zone map** (min / max / null count / sorted flag), and — for encoded
columns — the self-describing ``enc`` record (codec, parameters, payload
CRC) that drives decode.  The trailing ``(crc, length, magic)`` tuple lets
a reader find and *verify* the footer by seeking from the end,
parquet-style, without scanning the data blocks.

Reads go through ``numpy.memmap``: :meth:`RcsFile.read` returns a
:class:`~repro.frame.table.Table` whose **raw** columns are views over the
mapped file — no bytes are copied, and a two-column projection of a
hundred-column shard maps (at most) two columns' pages.  **Encoded**
columns are decoded into fresh process-local arrays (cached per reader, so
a time-range probe never decodes the time column twice).  Lifetime of the
raw views is handled twice over: every view's ``base`` chain pins the
mapping, and the table additionally retains the :class:`RcsFile` via
:meth:`~repro.frame.table.Table.retain`.

Encoding is **column-parallel**: :func:`save_rcs` encodes one column
per task on a per-call thread pool (zlib releases the GIL), a thread per
column up to one per core, capped by ``REPRO_MAX_WORKERS``.  The file is
laid out serially after every column is encoded, so its bytes do not
depend on the pool width.  Decoding runs on the calling thread: reads
are parallel across shards (the query service's and the executor's
pools), the one level of parallelism on the read path.  With tracing
on, a write is an ``rcs.save`` span with an ``rcs.encode`` child per
column and each decoded column an ``rcs.decode`` span, parented to the
caller's span whichever thread ran them.

Anything structurally wrong — truncated file, flipped footer byte, codec
payload CRC mismatch, out-of-range dictionary code, impossible column
extent — raises :class:`~repro.frame.encodings.ColumnarFormatError`
(a ``ValueError``), never a crash or silently wrong data.  A codec
failure carries an exception note naming the column and the file.

``REPRO_RCS_COMPRESSION=off`` pins writes to all-raw columns (same
container, every column zero-copy readable); both modes read back
bit-identical tables.

Cold scans additionally hint the kernel: the mapping is marked
``MADV_SEQUENTIAL`` at creation and each column's byte range gets a
page-aligned ``madvise(WILLNEED)`` right before its first
materialization, so the page cache reads ahead of the copy/decode loop.
Hints are advisory (failures are swallowed); they never change what is
read, only when pages arrive.
"""

from __future__ import annotations

import contextvars
import json
import mmap
import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.config import cap_workers
from repro.frame.encodings import (
    CODECS,
    ColumnarFormatError,
    compression_mode,
    decode_column,
    encode_column,
)
from repro.frame.io import replace_file
from repro.frame.table import Table
from repro.obs import trace

__all__ = [
    "RCS_MAGIC2",
    "RCS_VERSION",
    "TIME_COLUMN",
    "ColumnarFormatError",
    "RcsFile",
    "save_rcs",
    "open_rcs",
    "load_rcs",
    "zone_map",
    "compression_mode",
]

RCS_MAGIC2 = b"RCS2"
RCS_VERSION = 2

#: the archive's time column: time-range reads slice on it, zone maps
#: prune on it
TIME_COLUMN = "timestamp"

#: column buffers start on 64-byte boundaries (cache-line aligned views)
_ALIGN = 64

#: page size for madvise range alignment (madvise wants page multiples)
_PAGE = mmap.ALLOCATIONGRANULARITY


def _json_scalar(value):
    """A JSON-safe rendition of one zone-map bound (None for NaN/empty)."""
    if value is None:
        return None
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return None if np.isnan(v) else v
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return str(value)


def zone_map(table: Table) -> dict[str, dict]:
    """Per-column shard statistics: min, max, null count, sorted flag.

    ``min``/``max`` ignore NaNs (``None`` when a column is empty or
    all-NaN); ``nulls`` counts NaNs in float columns (0 elsewhere);
    ``sorted`` is True when the column is non-decreasing with no NaNs —
    the precondition for ``searchsorted`` row pruning on that column.
    All values are JSON-serializable, so a zone map can live in a dataset
    manifest as well as in an ``.rcs`` footer.
    """
    zones: dict[str, dict] = {}
    for name in table.columns:
        col = table[name]
        lo = hi = None
        nulls = 0
        is_sorted = False
        if col.shape[0]:
            if col.dtype.kind == "f":
                finite_mask = ~np.isnan(col)
                nulls = int(col.shape[0] - finite_mask.sum())
                if nulls < col.shape[0]:
                    lo, hi = np.min(col[finite_mask]), np.max(col[finite_mask])
                is_sorted = nulls == 0 and bool(np.all(col[1:] >= col[:-1]))
            elif col.dtype.kind in "US":
                # no min/max ufunc loop for strings: one sort via unique
                uniq = np.unique(col)
                lo, hi = uniq[0], uniq[-1]
            else:
                lo, hi = np.min(col), np.max(col)
                if col.dtype.kind in "iub":
                    is_sorted = bool(np.all(col[1:] >= col[:-1]))
        zones[name] = {
            "min": _json_scalar(lo),
            "max": _json_scalar(hi),
            "nulls": nulls,
            "sorted": is_sorted,
        }
    return zones


def _pad(n: int) -> int:
    return (-n) % _ALIGN


def _column_task(span: str, path: Path, seq: int | None, fn, name: str,
                 *args):
    """One column's codec call ``fn(name, *args)``: a ``span`` around it
    and, when it fails, a note on the exception naming column and file."""
    try:
        with trace.span(span, _seq=seq, column=name):
            return fn(name, *args)
    except Exception as exc:
        if hasattr(exc, "add_note"):  # Python >= 3.11
            exc.add_note(f"column {name!r} of {path}")
        raise


def _map_columns(span: str, path: Path, fn, names: list[str],
                 inline: bool = False) -> list:
    """``[fn(name) for name in names]``, one :func:`_column_task` per
    column of ``path``, results in column order (the encode side of
    :func:`save_rcs`).

    The tasks run on a per-call thread pool — a thread per column up to
    one per core, capped by ``REPRO_MAX_WORKERS`` — or in a plain loop
    when that width is 1 or ``inline`` says there is nothing to overlap.
    The pool lives for the call only: a module-level one would be
    inherited thread-less across ``fork`` by process-backend workers.
    Each task runs in a copy of the caller's context and takes its
    sibling number from the caller's span up front, so its span has the
    same id and parent — and lands in the same ``trace.capture()`` —
    on any thread.
    """
    workers = cap_workers(min(os.cpu_count() or 1, len(names)))
    parent = trace.current_span()
    tasks = [
        (span, path, None if parent is None else parent.next_child_seq(),
         fn, name)
        for name in names
    ]
    if inline or workers == 1:
        return [_column_task(*task) for task in tasks]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(
            lambda ctx, task: ctx.run(_column_task, *task),
            [contextvars.copy_context() for _ in tasks], tasks,
        ))


def save_rcs(
    table: Table,
    path: str | os.PathLike,
    zones: dict[str, dict] | None = None,
) -> int:
    """Write ``table`` as an ``.rcs`` shard; returns bytes on disk.

    Columns are written as raw little-endian buffers (non-native byte
    order is normalized) or, under :func:`compression_mode` ``auto`` (the
    default; ``REPRO_RCS_COMPRESSION`` sets it), as the smallest
    applicable codec from :mod:`repro.frame.encodings` — recorded
    per-column in the footer so decode is self-describing.  A column no
    codec shrinks stays raw and keeps its zero-copy read path.  ``zones``
    lets a caller that already computed :func:`zone_map` skip the second
    pass.  The shard is committed by :func:`~repro.frame.io.replace_file`,
    so a reader never sees a torn shard.

    Columns are encoded one per task on the codec thread pool (see the
    module docstring) and the file is laid out serially afterwards: the
    bytes written are the same for any pool width, and a column that
    fails to encode leaves nothing at ``path``.
    """
    path = Path(path)
    if zones is None:
        zones = zone_map(table)
    mode = compression_mode()

    cols: dict[str, np.ndarray] = {}
    for name in table.columns:
        col = np.ascontiguousarray(table[name])
        if col.dtype.byteorder == ">":  # normalize to little-endian
            col = col.astype(col.dtype.newbyteorder("<"))
        cols[name] = col

    with trace.span("rcs.save", rows=table.n_rows, columns=len(cols)) as sp:
        # encode_column is looked up on this module per call: the ledger's
        # traced pass rebinds it here to meter every column
        encoded = _map_columns(
            "rcs.encode", path,
            lambda name: encode_column(cols[name], mode=mode), list(cols),
            inline=mode == "off",
        )

        cols_meta: list[dict] = []
        buffers: list[bytes] = []
        offset = len(RCS_MAGIC2) + _pad(len(RCS_MAGIC2))
        for (name, col), enc in zip(cols.items(), encoded):
            meta = {"name": name, "dtype": col.dtype.str, "offset": offset,
                    "zone": zones[name]}
            if enc is None:
                payload = col.tobytes()
            else:
                meta["enc"], payload = enc
            meta["nbytes"] = len(payload)
            buffers.append(payload)
            cols_meta.append(meta)
            offset += len(payload) + _pad(len(payload))

        footer = json.dumps(
            {"version": RCS_VERSION, "n_rows": table.n_rows,
             "columns": cols_meta},
            separators=(",", ":"),
        ).encode()

        def _write(f) -> None:
            f.write(RCS_MAGIC2)
            f.write(b"\0" * _pad(len(RCS_MAGIC2)))
            for payload in buffers:
                f.write(payload)
                f.write(b"\0" * _pad(len(payload)))
            f.write(footer)
            f.write(struct.pack("<I", zlib.crc32(footer) & 0xFFFFFFFF))
            f.write(struct.pack("<Q", len(footer)))
            f.write(RCS_MAGIC2)

        size = replace_file(path, _write)
        sp.set(bytes=size)
    return size


class RcsFile:
    """A readable ``.rcs`` shard: parsed + verified footer, lazily mapped data.

    Opening parses only the footer (two small reads from the file tail),
    verifies its CRC and validates every structural claim —
    column extents inside the data region, parsable dtypes, raw byte
    counts consistent with the row count, known codecs.  The data region
    is mapped on the first :meth:`read`.  Raw columns come back as
    zero-copy views pinned by their ``base`` chains and
    :meth:`Table.retain`; encoded columns are decoded once per reader
    (cached) into ordinary arrays.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        with open(self.path, "rb") as f:
            f.seek(0, os.SEEK_END)
            size = f.tell()
            magic_len = len(RCS_MAGIC2)
            tail = 4 + 8 + magic_len          # trailer: (crc, len, magic)
            if size < magic_len + tail:
                raise ColumnarFormatError(
                    f"not an RCS file (too short): {self.path}"
                )
            f.seek(size - magic_len)
            if f.read(magic_len) != RCS_MAGIC2:
                raise ColumnarFormatError(
                    f"bad RCS trailer magic in {self.path}"
                )
            f.seek(size - tail)
            footer_crc, length = struct.unpack("<IQ", f.read(12))
            if length > size - tail - magic_len:
                raise ColumnarFormatError(
                    f"corrupt RCS footer length in {self.path}"
                )
            f.seek(size - tail - length)
            raw_footer = f.read(length)
            if (zlib.crc32(raw_footer) & 0xFFFFFFFF) != footer_crc:
                raise ColumnarFormatError(
                    f"RCS footer CRC mismatch in {self.path} "
                    "(corrupt or truncated footer)"
                )
            try:
                footer = json.loads(raw_footer)
            except ValueError as exc:
                raise ColumnarFormatError(
                    f"corrupt RCS footer JSON in {self.path}: {exc}"
                ) from exc
            f.seek(0)
            if f.read(magic_len) != RCS_MAGIC2:
                raise ColumnarFormatError(
                    f"bad RCS header magic in {self.path}"
                )
        if not isinstance(footer, dict) or (
            footer.get("version") != RCS_VERSION
        ):
            got = footer.get("version") if isinstance(footer, dict) else footer
            raise ColumnarFormatError(
                f"unsupported RCS version {got!r} in {self.path}"
            )
        self._data_end = size - tail - length
        self._validate(footer)
        self._mm: np.memmap | None = None
        self._decoded: dict[str, np.ndarray] = {}
        self._advised: set[str] = set()

    def _validate(self, footer: dict) -> None:
        """Reject structurally impossible footers before any data read."""
        try:
            self.n_rows = int(footer["n_rows"])
            columns = footer["columns"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ColumnarFormatError(
                f"corrupt RCS footer schema in {self.path}: {exc}"
            ) from exc
        if self.n_rows < 0 or not isinstance(columns, list):
            raise ColumnarFormatError(
                f"corrupt RCS footer schema in {self.path}"
            )
        self._cols: dict[str, dict] = {}
        for meta in columns:
            try:
                name = meta["name"]
                dtype = np.dtype(meta["dtype"])
                offset = int(meta["offset"])
                nbytes = int(meta["nbytes"])
            except Exception as exc:
                raise ColumnarFormatError(
                    f"corrupt RCS column metadata in {self.path}: {exc}"
                ) from exc
            if offset < len(RCS_MAGIC2) or nbytes < 0 or (
                offset + nbytes > self._data_end
            ):
                raise ColumnarFormatError(
                    f"column {name!r} extent [{offset}, {offset + nbytes}) "
                    f"falls outside the data region of {self.path}"
                )
            enc = meta.get("enc")
            if enc is None:
                if nbytes != self.n_rows * dtype.itemsize:
                    raise ColumnarFormatError(
                        f"raw column {name!r} holds {nbytes} bytes, "
                        f"but {self.n_rows} rows of {dtype} need "
                        f"{self.n_rows * dtype.itemsize} in {self.path}"
                    )
            elif not isinstance(enc, dict) or enc.get("codec") not in CODECS:
                codec = enc.get("codec") if isinstance(enc, dict) else enc
                raise ColumnarFormatError(
                    f"column {name!r} uses unknown codec {codec!r} "
                    f"in {self.path}"
                )
            self._cols[name] = meta

    # ---------------- metadata ----------------

    @property
    def columns(self) -> list[str]:
        """Column names in file order."""
        return list(self._cols)

    @property
    def codecs(self) -> dict[str, str]:
        """Column name -> codec (``raw`` for uncompressed columns)."""
        return {
            name: (meta.get("enc") or {}).get("codec", "raw")
            for name, meta in self._cols.items()
        }

    def __repr__(self) -> str:
        return (
            f"RcsFile({str(self.path)!r}, {self.n_rows} rows, "
            f"{len(self._cols)} columns)"
        )

    # ---------------- reading ----------------

    def _mapping(self) -> np.memmap:
        if self._mm is None:
            self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
            try:
                self._mm._mmap.madvise(mmap.MADV_SEQUENTIAL)
            except (AttributeError, ValueError, OSError):
                pass  # advisory only; platform may lack madvise
        return self._mm

    def _advise(self, name: str) -> None:
        """``madvise(WILLNEED)`` the column's byte range ahead of a cold
        materialization, so the kernel reads its pages ahead of the
        copy/decode loop instead of faulting one page at a time.  Advisory
        and idempotent per reader; no-op when the platform lacks madvise."""
        if name in self._advised:
            return
        self._advised.add(name)
        meta = self._cols[name]
        offset, nbytes = int(meta["offset"]), int(meta["nbytes"])
        start = offset - (offset % _PAGE)
        try:
            self._mapping()._mmap.madvise(
                mmap.MADV_WILLNEED, start, nbytes + (offset - start)
            )
        except (AttributeError, ValueError, OSError):
            pass

    def _decode(self, name: str) -> np.ndarray:
        """Decode one encoded column into the reader's cache (read-only)."""
        meta = self._cols[name]
        mm = self._mapping()
        self._advise(name)
        payload = bytes(mm[meta["offset"]:meta["offset"] + meta["nbytes"]])
        got = decode_column(
            meta["enc"], payload, np.dtype(meta["dtype"]), self.n_rows
        )
        got.setflags(write=False)
        self._decoded[name] = got
        return got

    def read(
        self,
        columns: list[str] | None = None,
        rows: slice | None = None,
    ) -> Table:
        """A table of the requested columns (default: all).

        Raw columns are zero-copy views over the mapping; encoded columns
        decode into cached process-local arrays, the ones not yet cached on
        the calling thread (readers run in parallel one shard per thread,
        so a pool here would only nest).  ``rows`` slices every column
        (views of views on the raw path).  The returned table retains
        this reader, and each raw view's ``base`` chain pins the mapping,
        so it outlives both this object and — on POSIX — the directory
        entry itself.
        """
        names = self.columns if columns is None else list(columns)
        missing = [n for n in names if n not in self._cols]
        if missing:
            raise KeyError(
                f"no columns {missing} in {self.path}; have {self.columns}"
            )
        mm = self._mapping()
        cols: dict[str, np.ndarray] = {}
        for name in names:
            meta = self._cols[name]
            if "enc" in meta:
                view = self._decoded.get(name)
                if view is None:
                    view = _column_task("rcs.decode", self.path, None,
                                        self._decode, name)
            else:
                self._advise(name)
                raw = mm[meta["offset"]:meta["offset"] + meta["nbytes"]]
                view = raw.view(np.dtype(meta["dtype"]))
            cols[name] = view if rows is None else view[rows]
        return Table(cols).retain(self)

    def read_time_range(
        self,
        t_begin: float,
        t_end: float,
        columns: list[str] | None = None,
    ) -> Table:
        """Rows with ``t_begin <= TIME_COLUMN < t_end`` (zero-copy when
        sorted + raw).

        A time column the zone map marks sorted is sliced with two
        ``searchsorted`` probes — only the time column's pages (or its
        cached decode) are touched before slicing; otherwise a boolean
        mask is applied (which materializes fresh arrays).
        """
        if TIME_COLUMN not in self._cols:
            raise KeyError(f"no time column {TIME_COLUMN!r} in {self.path}")
        t = self.read([TIME_COLUMN])[TIME_COLUMN]
        if self._cols[TIME_COLUMN]["zone"]["sorted"]:
            lo = int(np.searchsorted(t, t_begin, side="left"))
            hi = int(np.searchsorted(t, t_end, side="left"))
            return self.read(columns, rows=slice(lo, hi))
        mask = (t >= t_begin) & (t < t_end)
        return self.read(columns).filter(mask)


def open_rcs(path: str | os.PathLike) -> RcsFile:
    """Open an ``.rcs`` shard for reading (footer parse + validation only)."""
    return RcsFile(path)


def load_rcs(path: str | os.PathLike) -> Table:
    """Load a whole ``.rcs`` shard as a table."""
    return RcsFile(path).read()
