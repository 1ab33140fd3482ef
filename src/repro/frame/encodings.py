"""Per-column compressed encodings for the ``.rcs`` storage layer.

The raw ``.rcs`` container (PR 4) stores every column as its uncompressed
little-endian buffer — great for zero-copy mmap reads, but *larger* on disk
than a compressed ``.npz`` of the same table.  This module adds the
byte-shrinking tier: a small family of column codecs, a heuristic
selector, and a self-describing metadata record that travels in the shard
footer so a reader needs nothing but the file to decode.

Codecs
------
``raw``
    Pass-through (the PR 4 format).  The only codec whose reads stay
    zero-copy mmap views; every other codec decodes into fresh arrays.
``delta``
    Integer columns: delta -> zigzag -> LEB128 varint -> frame.  Sorted
    columns (timestamps, node ids) shrink dramatically.
``qdelta``
    Float columns that are exact integral multiples of a small quantum
    (true of everything the twin's sensors emit): quantize at the detected
    LSB, then the ``delta`` stack.  Reconstruction is verified bit-exact
    at encode time — a column that would round-trip lossily is never
    encoded this way.
``fxor``
    Slowly varying fixed-width columns (Gorilla-style): XOR each element
    with its predecessor, byte-transpose the XOR stream so the
    mostly-zero high bytes group together, then frame.  Works on floats,
    ints, bools and fixed-width strings alike.  Decode walks the inflated
    byte planes and writes each plane's prefix XOR straight into its
    byte lane of the output, so no transposed copy is made; the planes
    that never change after row 0 share one fill of the output with
    row 0.
``dict``
    Low-cardinality columns (cabinet, class, domain, state strings):
    unique values once + a narrow code per row, framed.
``zframe``
    General-purpose framing of the raw buffer (what ``.npz`` does per
    member) — the fallback when nothing structural applies.

Framing is ``zlib``, so shard bytes do not depend on which packages are
installed.  The writer deflates with the run-length strategy (``Z_RLE``):
the byte-shuffled ``fxor`` planes and the varint deltas it frames are made
of byte runs, so a match search at any other distance costs several
times the deflate time and buys almost no bytes.  The stream is still plain zlib, so
the reader inflates shards framed at any level or strategy alike.  The
frame tag is recorded per column; a footer naming a frame this build does
not know fails with a clean :class:`ColumnarFormatError` instead of
garbage.  Inflation stops at the most bytes the column's codec can need
(one past the column's bytes for ``fxor`` and ``zframe``, a 10-byte
varint per row for the others), so a crafted frame cannot balloon past
its column's size; the bytes inflate in steps into one buffer, never
into blocks that are then joined.

Every encoded payload carries a CRC-32 that is verified before decoding:
a flipped byte raises :class:`ColumnarFormatError`, never returns silently
wrong data.  (Raw columns skip the checksum — paying a full checksum pass
on every read would forfeit the zero-copy contract; corruption there is
bounded by the container's structural validation instead.)

``REPRO_RCS_COMPRESSION`` selects the write-side mode: ``auto`` (the
default — per-column heuristic selection, raw fallback whenever encoding
does not shrink the column) or ``off`` (always raw, the PR 4 byte
layout).  Readers never consult the switch: decode is driven entirely by
the footer.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

__all__ = [
    "ColumnarFormatError",
    "CODECS",
    "compression_mode",
    "zigzag_encode",
    "zigzag_decode",
    "varint_encode",
    "varint_decode",
    "frame_compress",
    "frame_decompress",
    "encode_column",
    "decode_column",
]


class ColumnarFormatError(ValueError):
    """A shard or encoded column failed validation or decode.

    Subclasses :class:`ValueError` so pre-existing callers that caught the
    container's original errors keep working; new code should catch this.
    """


_MODES = ("auto", "off")


def compression_mode() -> str:
    """Write-side codec policy: ``REPRO_RCS_COMPRESSION``, else ``auto``."""
    mode = os.environ.get("REPRO_RCS_COMPRESSION") or "auto"
    if mode not in _MODES:
        raise ValueError(
            f"REPRO_RCS_COMPRESSION must be one of {_MODES}, got {mode!r}"
        )
    return mode


# ---------------- zigzag + varint primitives ----------------


def zigzag_encode(d: np.ndarray) -> np.ndarray:
    """Map signed int64 to uint64 so small magnitudes stay small."""
    d = np.asarray(d, dtype=np.int64)
    return ((d << 1) ^ (d >> 63)).view(np.uint64)


def zigzag_decode(z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    z = np.asarray(z, dtype=np.uint64)
    return ((z >> np.uint64(1)) ^ (-(z & np.uint64(1))).view(np.uint64)).view(
        np.int64
    )


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128 varint encoding of a uint64 vector (vectorized by byte plane)."""
    values = np.asarray(values, dtype=np.uint64)
    out = bytearray()
    pending = values.copy()
    parts: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    alive = np.ones(len(values), dtype=bool)
    while alive.any():
        byte = (pending & np.uint64(0x7F)).astype(np.uint8)
        pending = pending >> np.uint64(7)
        more = pending > 0
        byte[more] |= 0x80
        parts.append(np.where(alive, byte, 0).astype(np.uint8))
        masks.append(alive.copy())
        alive = alive & more
    # interleave: emit per-value sequences
    n = len(values)
    max_len = len(parts)
    grid = np.zeros((n, max_len), dtype=np.uint8)
    valid = np.zeros((n, max_len), dtype=bool)
    for i, (p, m) in enumerate(zip(parts, masks)):
        grid[:, i] = p
        valid[:, i] = m
    flat = grid[valid]
    out.extend(flat.tobytes())
    return bytes(out)


def varint_decode(buf: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`varint_encode`; validates stream shape.

    Per-value byte groups are summed with ``np.add.reduceat`` (each
    value's continuation bytes are contiguous), which is markedly faster
    than the scatter-add the archive codec originally used — the storage
    layer decodes hundreds of columns per dataset read.
    """
    if count == 0:
        if buf:
            raise ColumnarFormatError(
                "corrupt varint stream: trailing bytes after an empty series"
            )
        return np.zeros(0, dtype=np.uint64)
    if not buf:
        raise ColumnarFormatError(
            f"corrupt varint stream: empty payload, header claims {count} "
            "values"
        )
    data = np.frombuffer(buf, dtype=np.uint8)
    if len(data) == count and not (data & 0x80).any():
        # fast path: every value fits one byte (the common case for the
        # small deltas of smooth sorted columns) — no boundary bookkeeping
        return data.astype(np.uint64)
    # positions of value boundaries: a byte with high bit clear ends a value
    ends = (data & 0x80) == 0
    value_of_byte = np.concatenate([[0], np.cumsum(ends)[:-1]])
    terminated = int(ends.sum())
    if terminated != count or value_of_byte[-1] != count - 1:
        raise ColumnarFormatError(
            f"corrupt varint stream: holds {terminated} terminated values, "
            f"header claims {count}"
        )
    starts = np.concatenate([[0], np.flatnonzero(ends)[:-1] + 1])
    pos_in_value = np.arange(len(data)) - starts[value_of_byte]
    if pos_in_value.max() >= 10:
        raise ColumnarFormatError(
            "corrupt varint stream: a value spans more than 10 bytes"
        )
    contrib = (data.astype(np.uint64) & np.uint64(0x7F)) << (
        np.uint64(7) * pos_in_value.astype(np.uint64)
    )
    return np.add.reduceat(contrib, starts).astype(np.uint64)


# ---------------- framing ----------------
# a column's frame tag is ``zlib``, or ``none`` for a payload stored as-is

#: a frame must shrink its payload by at least this fraction to be kept —
#: decompression costs real read latency (zlib inflates at a few hundred
#: MB/s while the unframed fast paths decode at memory speed), so a frame
#: that only shaves a few percent off an already varint- or shuffle-packed
#: stream loses more cold-read throughput than the bytes are worth
FRAME_MIN_SAVING = 0.25


def frame_compress(payload: bytes) -> tuple[str, bytes]:
    """Deflate ``payload`` (level 6, run-length strategy) into a zlib
    stream; returns ``(tag, bytes)``.

    Falls back to ``("none", payload)`` when framing does not shrink it
    by at least :data:`FRAME_MIN_SAVING` (decode speed pays for bytes).
    """
    deflate = zlib.compressobj(6, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE)
    framed = deflate.compress(payload) + deflate.flush()
    if len(framed) >= len(payload) * (1.0 - FRAME_MIN_SAVING):
        return "none", payload
    return "zlib", framed


#: bytes inflated (and compressed bytes fed) per step: CPython returns a
#: step this size as one block, so no step is copied twice, and the
#: unconsumed input it copies per step stays this small too
_INFLATE_STEP = 1 << 15

#: deflate cannot expand its input more than 1032-fold (a 258-byte match
#: costs at least two bits)
_DEFLATE_MAX_RATIO = 1032


def frame_decompress(tag: str, buf: bytes, limit: int) -> bytes | memoryview:
    """Inverse of :func:`frame_compress`; clean errors on corruption.

    Inflates fewer than ``limit`` (> 0) bytes: a frame whose stream
    reaches that many is refused without being inflated further.  The
    stream is inflated step by step straight into one buffer of
    ``limit`` bytes (fewer when deflate's expansion ceiling says the
    stream cannot fill it, so a huge claimed bound reserves no more than
    the stream could inflate to), which is returned as a writable
    ``memoryview``: the inflated bytes are held once, never as zlib's
    output blocks plus their join.
    """
    if tag == "none":
        return buf
    if tag != "zlib":
        raise ColumnarFormatError(
            f"column framed with {tag!r}, which this build cannot decode "
            "(have ['none', 'zlib'])"
        )
    dest = memoryview(
        np.empty(min(limit, _DEFLATE_MAX_RATIO * len(buf)), dtype=np.uint8)
    )
    src = memoryview(buf)
    inflate = zlib.decompressobj()
    pos = fed = 0
    pending = b""
    try:
        while not inflate.eof and pos < len(dest):
            if not pending:
                pending = src[fed:fed + _INFLATE_STEP]
                fed += len(pending)
            step = inflate.decompress(
                pending, min(_INFLATE_STEP, len(dest) - pos)
            )
            pending = inflate.unconsumed_tail
            if not step and not pending and fed >= len(src):
                break  # input spent, stream unfinished
            dest[pos:pos + len(step)] = step
            pos += len(step)
    except zlib.error as exc:
        raise ColumnarFormatError(
            f"truncated or corrupt {tag} frame: {exc}"
        ) from exc
    if pos >= limit:
        raise ColumnarFormatError(
            f"corrupt {tag} frame: inflates past the {limit:,}-byte "
            "bound of its column"
        )
    if not inflate.eof:
        raise ColumnarFormatError(
            f"truncated or corrupt {tag} frame: incomplete stream"
        )
    return dest[:pos]


# ---------------- helpers ----------------

#: quanta probed by the qdelta LSB detector, coarse to fine
_LSB_CANDIDATES = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.001)

#: |values| beyond this cannot ride the int64 delta stack safely
_INT_LIMIT = np.int64(1) << np.int64(62)

#: dictionary encoding gives up beyond this cardinality
_DICT_MAX = 4096


def _le(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous little-endian copy/view of ``arr``."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    return arr


def _delta_payload(ints: np.ndarray) -> bytes:
    """ints (int64) -> 8-byte seed + delta -> zigzag -> varint bytes.

    The first value is stored as a fixed-width little-endian int64 rather
    than as delta[0]: an absolute seed is usually the one multi-byte
    varint in an otherwise single-byte stream of bounded-slew deltas, and
    keeping it out of the stream lets :func:`varint_decode`'s all-single-
    byte fast path fire for exactly the telemetry this codec targets.
    """
    if not len(ints):
        return b""
    deltas = np.diff(ints)
    return ints[:1].astype("<i8").tobytes() + varint_encode(
        zigzag_encode(deltas)
    )


def _delta_ints(payload: bytes, count: int) -> np.ndarray:
    if count == 0:
        if payload:
            raise ColumnarFormatError(
                "corrupt delta payload: trailing bytes after an empty column"
            )
        return np.zeros(0, dtype=np.int64)
    if len(payload) < 8:
        raise ColumnarFormatError(
            f"corrupt delta payload: {len(payload)} bytes is too short to "
            "hold the seed value"
        )
    out = np.empty(count, dtype=np.int64)
    out[0] = np.frombuffer(payload, dtype="<i8", count=1)[0]
    data = np.frombuffer(payload, dtype=np.uint8, offset=8)
    if len(data) == count - 1 and not (data & 0x80).any():
        # fused fast path (bounded-slew telemetry): every varint is one
        # byte, so the whole decode is an int16 zigzag unfold and one
        # int64 cumsum — no boundary bookkeeping, no 8-byte intermediates
        out[1:] = _zz_bytes_i16(data)
    else:
        out[1:] = zigzag_decode(varint_decode(payload[8:], count - 1))
    return np.cumsum(out, out=out)


def _zz_bytes_i16(data: np.ndarray) -> np.ndarray:
    """Zigzag-decode single-byte varints (values 0..127) in int16.

    Beats both a 128-entry table gather and 64-bit shift/xor arithmetic:
    the unfold runs entirely on 2-byte lanes, so each SIMD op covers 4x
    the elements of its int64 counterpart and the gather's per-element
    indexing cost disappears.
    """
    z = data.astype(np.int16)
    sign = -(z & 1)
    z >>= 1
    z ^= sign
    return z


def _qdelta_floats(
    payload: bytes, count: int, lsb: float
) -> np.ndarray | None:
    """Fast qdelta reconstruction entirely in float64, or ``None``.

    When every delta fits one varint byte and every running value stays
    far below 2**53, the integer walk is exactly representable in float64
    — so the cumsum can run in the output dtype directly and the LSB
    scale applies in place, skipping the int64 intermediate and its
    separate multiply allocation.  Falls back (returns ``None``) whenever
    exactness cannot be guaranteed; :func:`_delta_ints` then takes over.
    """
    if count == 0 or len(payload) < 8:
        return None
    data = np.frombuffer(payload, dtype=np.uint8, offset=8)
    if len(data) != count - 1 or (data & 0x80).any():
        return None
    seed = int(np.frombuffer(payload, dtype="<i8", count=1)[0])
    # |values| <= |seed| + 63 * steps; stay an order below 2**53
    if abs(seed) + 64 * count > (1 << 52):
        return None
    out = np.empty(count, dtype=np.float64)
    out[0] = seed
    out[1:] = _zz_bytes_i16(data)
    np.cumsum(out, out=out)
    if lsb != 1.0:
        out *= lsb
    return out


def _shuffle(raw: np.ndarray, itemsize: int) -> bytes:
    """Byte-transpose: group byte plane 0 of every element, then plane 1..."""
    return raw.reshape(-1, itemsize).T.copy().tobytes()


def _xor_stream(arr: np.ndarray) -> np.ndarray:
    """Per-element XOR with predecessor over the byte matrix (first kept)."""
    mat = arr.view(np.uint8).reshape(len(arr), arr.dtype.itemsize)
    out = mat.copy()
    np.bitwise_xor(mat[1:], mat[:-1], out=out[1:])
    return out.reshape(-1)


def _unxor_planes(planes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`_xor_stream` + :func:`_shuffle`, in one pass.

    ``planes`` is the ``(itemsize, n)`` plane-major byte matrix.  Each
    live plane's prefix XOR is written straight into its byte lane of the
    output (a strided view), so no transposed copy is made.  A plane that
    is zero after row 0 (a byte that never changes, such as the high
    bytes of small ints) keeps its first byte in every row, so when any
    plane is, the output is first filled with row 0 — one contiguous
    fill, not a strided one per plane.
    """
    out = np.empty(planes.shape[1], dtype=dtype)
    lanes = out.view(np.uint8).reshape(planes.shape[::-1])
    live = planes[:, 1:].any(axis=1)
    if not live.all():
        out[:] = np.ascontiguousarray(planes[:, :1].T).view(dtype).reshape(-1)
    for j in np.flatnonzero(live):
        np.bitwise_xor.accumulate(planes[j], out=lanes[:, j])
    return out


def _code_dtype(k: int) -> np.dtype:
    if k <= 1 << 8:
        return np.dtype("<u1")
    if k <= 1 << 16:
        return np.dtype("<u2")
    return np.dtype("<u4")


# ---------------- individual encoders ----------------
# Each returns (meta, payload) or None when the codec does not apply.
# meta carries everything decode needs besides the column dtype and row
# count, which the container footer already records.


def _try_delta(arr: np.ndarray) -> tuple[dict, bytes] | None:
    if arr.dtype.kind not in "iu":
        return None
    if arr.dtype.itemsize > 8:
        return None
    if len(arr) and (
        int(arr.min()) < -int(_INT_LIMIT) or int(arr.max()) > int(_INT_LIMIT)
    ):
        return None
    ints = arr.astype(np.int64)
    if not np.array_equal(ints.astype(arr.dtype), arr):
        return None
    tag, framed = frame_compress(_delta_payload(ints))
    return {"codec": "delta", "frame": tag}, framed


def _try_qdelta(arr: np.ndarray) -> tuple[dict, bytes] | None:
    if arr.dtype.kind != "f":
        return None
    if len(arr) == 0 or not np.all(np.isfinite(arr)):
        return None
    v64 = arr.astype(np.float64)
    for lsb in _LSB_CANDIDATES:
        with np.errstate(over="ignore", invalid="ignore"):
            ints = np.round(v64 / lsb)
        if not np.all(np.isfinite(ints)) or (
            np.abs(ints).max() > float(_INT_LIMIT)
        ):
            continue
        ints = ints.astype(np.int64)
        # decode-path reconstruction must be *bit-exact*: compare bytes,
        # not values, or a -0.0 column would silently lose its sign bits
        if (ints * lsb).astype(arr.dtype).tobytes() == arr.tobytes():
            tag, framed = frame_compress(_delta_payload(ints))
            return {"codec": "qdelta", "lsb": lsb, "frame": tag}, framed
    return None


def _try_fxor(arr: np.ndarray) -> tuple[dict, bytes] | None:
    if len(arr) == 0:
        return None
    stream = _xor_stream(arr)
    tag, framed = frame_compress(_shuffle(stream, arr.dtype.itemsize))
    return {"codec": "fxor", "frame": tag}, framed


def _try_dict(arr: np.ndarray) -> tuple[dict, bytes] | None:
    if len(arr) == 0:
        return None
    # cheap cardinality probe before the full unique pass
    probe = arr[: 4096]
    if len(np.unique(probe)) > min(_DICT_MAX, max(1, len(probe) // 2)):
        return None
    values, codes = np.unique(arr, return_inverse=True)
    k = len(values)
    if k > _DICT_MAX or k >= len(arr):
        return None
    cw = _code_dtype(k)
    payload = _le(values).tobytes() + codes.astype(cw).tobytes()
    tag, framed = frame_compress(payload)
    return {"codec": "dict", "n_values": k, "codes": cw.str, "frame": tag}, framed


def _try_zframe(arr: np.ndarray) -> tuple[dict, bytes] | None:
    if len(arr) == 0:
        return None
    tag, framed = frame_compress(arr.tobytes())
    if tag == "none":
        return None
    return {"codec": "zframe", "frame": tag}, framed


def encode_column(arr: np.ndarray, mode: str = "auto") -> tuple[dict, bytes] | None:
    """Pick and apply the best codec for one column.

    Returns ``(meta, payload)`` — ``meta["codec"]`` plus codec parameters,
    a ``crc`` of the payload, and ``meta["raw"]`` (the decoded byte
    length, cross-checked at read time) — or ``None`` when the column
    should be stored raw: mode ``off``, an empty column, or no codec that
    actually shrinks the bytes.  The input must already be little-endian
    contiguous (the container normalizes before calling).
    """
    if mode == "off" or arr.size == 0:
        return None
    kind = arr.dtype.kind
    if kind in "iu":
        attempts = (_try_dict, _try_delta, _try_fxor)
    elif kind == "f":
        attempts = (_try_qdelta, _try_fxor)
    elif kind in "USVb":
        attempts = (_try_dict, _try_fxor, _try_zframe)
    else:
        attempts = (_try_fxor, _try_zframe)
    best: tuple[dict, bytes] | None = None
    for attempt in attempts:
        got = attempt(arr)
        if got is not None and (best is None or len(got[1]) < len(best[1])):
            best = got
    if best is None or len(best[1]) >= arr.nbytes:
        return None
    meta, payload = best
    meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
    meta["raw"] = int(arr.nbytes)
    return meta, payload


def decode_column(
    meta: dict, payload: bytes, dtype: np.dtype, n_rows: int
) -> np.ndarray:
    """Decode one encoded column back to its exact original array.

    Verifies the payload CRC first and validates every structural claim
    (frame integrity, code bounds, byte counts) so corruption raises
    :class:`ColumnarFormatError` instead of returning wrong data.
    """
    codec = meta.get("codec")
    crc = meta.get("crc")
    if crc is not None and (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        raise ColumnarFormatError(
            f"column payload CRC mismatch (codec {codec!r}): stored "
            f"{crc:#010x}, computed {zlib.crc32(payload) & 0xFFFFFFFF:#010x}"
        )
    size = n_rows * dtype.itemsize
    if codec in ("fxor", "zframe"):
        # fixed-width payloads hold exactly the column's bytes: one byte
        # more tells a stream that goes on past them
        limit = size + 1
    else:
        # a 10-byte varint per row plus the 8-byte delta seed (dict
        # values are fewer than rows)
        limit = size + n_rows * 10 + 8
    raw = frame_decompress(meta.get("frame", "none"), payload, limit)
    want_raw = meta.get("raw")
    try:
        if codec == "delta":
            got = _delta_ints(raw, n_rows).astype(dtype, copy=False)
        elif codec == "qdelta":
            lsb = float(meta["lsb"])
            if not np.isfinite(lsb) or lsb == 0.0:
                raise ColumnarFormatError(
                    f"corrupt qdelta metadata: lsb {lsb} is not usable"
                )
            got = _qdelta_floats(raw, n_rows, lsb)
            if got is None:
                got = _delta_ints(raw, n_rows) * lsb
            got = got.astype(dtype, copy=False)
        elif codec == "fxor":
            if len(raw) != size:
                raise ColumnarFormatError(
                    f"corrupt fxor payload: {len(raw)} bytes for "
                    f"{n_rows} x {dtype.itemsize}-byte rows"
                )
            planes = np.frombuffer(raw, dtype=np.uint8).reshape(
                dtype.itemsize, n_rows
            )
            got = _unxor_planes(planes, dtype)
        elif codec == "dict":
            k = int(meta["n_values"])
            codes_dt = np.dtype(meta["codes"])
            split = k * dtype.itemsize
            if k <= 0 or len(raw) != split + n_rows * codes_dt.itemsize:
                raise ColumnarFormatError(
                    f"corrupt dict payload: {len(raw)} bytes for "
                    f"{k} values + {n_rows} codes"
                )
            values = np.frombuffer(raw[:split], dtype=dtype)
            codes = np.frombuffer(raw[split:], dtype=codes_dt)
            if len(codes) and int(codes.max()) >= k:
                raise ColumnarFormatError(
                    f"corrupt dict codes: code {int(codes.max())} out of "
                    f"range for {k} values"
                )
            got = values[codes]
        elif codec == "zframe":
            if len(raw) != size:
                raise ColumnarFormatError(
                    f"corrupt zframe payload: {len(raw)} bytes, expected "
                    f"{size}"
                )
            # an inflated buffer is the column's own; a stored one is
            # copied below
            got = np.frombuffer(raw, dtype=dtype)
        else:
            raise ColumnarFormatError(f"unknown column codec {codec!r}")
    except ColumnarFormatError:
        raise
    except Exception as exc:
        raise ColumnarFormatError(
            f"failed to decode {codec!r} column: {exc}"
        ) from exc
    if got.shape[0] != n_rows:
        raise ColumnarFormatError(
            f"decoded {codec!r} column has {got.shape[0]} rows, "
            f"footer claims {n_rows}"
        )
    if want_raw is not None and int(got.nbytes) != int(want_raw):
        raise ColumnarFormatError(
            f"decoded {codec!r} column is {got.nbytes} bytes, "
            f"footer claims {want_raw}"
        )
    if not got.flags.writeable:
        got = got.copy()
    return got


#: codec names a footer may legally carry (raw is the absence of ``enc``)
CODECS = ("raw", "delta", "qdelta", "fxor", "dict", "zframe")
