"""The plane-wise ``fxor`` decoder against an oracle, and its memory.

``decode_column`` walks the inflated byte planes and writes each plane's
prefix XOR straight into its byte lane of the output.  The oracle below is
the route it replaced: transpose the planes into rows, then one axis-0
``bitwise_xor.accumulate``.  Both must give back the encoded column byte
for byte, on every width ``fxor`` takes and on planes that are constant
after row 0 (filled, not accumulated) or live.
"""

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.frame.encodings as enc
from repro.frame.encodings import decode_column, frame_decompress

#: every width ``_try_fxor`` takes, 1 to 16 bytes
WIDTHS = ["?", "i1", "u1", "<i2", "<u2", "<i4", "<u4", "<i8", "<u8",
          "<f2", "<f4", "<f8", "<c16", "<U3"]


def transpose_route(raw, dtype: np.dtype, n: int) -> np.ndarray:
    """The pre-plane-wise decoder, kept here as the oracle."""
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(dtype.itemsize, n)
    rows = np.ascontiguousarray(planes.T)
    return np.bitwise_xor.accumulate(rows, axis=0, dtype=np.uint8).view(
        dtype
    ).reshape(-1)


def fxor_encoded(arr: np.ndarray) -> tuple[dict, bytes]:
    meta, payload = enc._try_fxor(np.ascontiguousarray(arr))
    meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
    meta["raw"] = arr.nbytes
    return meta, payload


@st.composite
def fxor_columns(draw):
    """A column of ``n`` rows whose byte lanes are each constant or live;
    a live lane changes on a drawn share of rows (slowly varying to
    noise)."""
    dtype = np.dtype(draw(st.sampled_from(WIDTHS)))
    n = draw(st.integers(1, 300))
    live = np.array(draw(st.lists(st.booleans(), min_size=dtype.itemsize,
                                  max_size=dtype.itemsize)))
    change = draw(st.sampled_from([0.02, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.integers(0, 256, (n, dtype.itemsize), dtype=np.uint8)
    mat[:, ~live] = mat[0, ~live]
    held = rng.random(n) >= change
    held[0] = False
    mat = mat[np.maximum.accumulate(np.where(held, 0, np.arange(n)))]
    return mat.reshape(-1).view(dtype)


def nan_payloads() -> np.ndarray:
    bits = np.array([0x7FF8000000000000, 0x7FF80000DEADBEEF,
                     0xFFF0000000000001, 0x7FF0000000000001] * 25,
                    dtype=np.uint64)
    return bits.view(np.float64)


@given(fxor_columns())
@example(np.full(120, 1.5))                               # constant
@example(np.full(7, "abc", dtype="<U3"))                  # constant text
@example(np.arange(300, dtype=np.int64) % 200)            # one live plane
@example(np.random.default_rng(5).random(300))            # all planes live
@example(nan_payloads())                                  # NaN payloads
@example(np.array([0.0, -0.0, -0.0, 0.0, -0.0] * 20))     # -0.0
@example(np.array([-1.25]))                               # one row
@settings(max_examples=200, deadline=None)
def test_plane_decode_matches_input_and_transpose_oracle(arr):
    meta, payload = fxor_encoded(arr)
    got = decode_column(meta, payload, arr.dtype, len(arr))
    raw = frame_decompress(meta["frame"], payload, arr.nbytes + 1)
    oracle = transpose_route(raw, arr.dtype, len(arr))
    assert got.dtype == arr.dtype and got.shape == arr.shape
    assert got.tobytes() == arr.tobytes() == oracle.tobytes()
    assert got.flags.writeable


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("frame", ["none", "zlib"])
def test_zero_row_footer_decodes_to_an_empty_column(width, frame):
    # the encoder never writes an empty column, but a footer may claim one
    if frame == "zlib":
        deflate = zlib.compressobj()
        payload = deflate.compress(b"") + deflate.flush()
    else:
        payload = b""
    meta = {"codec": "fxor", "frame": frame, "raw": 0,
            "crc": zlib.crc32(payload) & 0xFFFFFFFF}
    got = decode_column(meta, payload, np.dtype(width), 0)
    assert got.dtype == np.dtype(width) and got.shape == (0,)


def test_decode_peak_memory_stays_near_input_plus_output():
    # one 43,200-row float64 fxor column, the size of a compacted 1 Hz
    # archive shard's columns: the inflated planes plus the output, with
    # no transposed copy between them (3.00x by the transpose route)
    rng = np.random.default_rng(11)
    steps = np.where(rng.random(43_200) < 0.1, rng.normal(0, 4, 43_200), 0)
    arr = np.round(2400.0 + np.cumsum(steps), 3)
    meta, payload = fxor_encoded(arr)
    assert meta["frame"] == "zlib"
    tracemalloc.start()
    try:
        got = decode_column(meta, payload, arr.dtype, len(arr))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == arr.tobytes()
    assert peak <= 2.5 * arr.nbytes
