"""Codec battery for the .rcs column encodings.

Three layers of defense, mirroring the module's contract:

* **round-trip properties** — every encoder is bit-identical through
  encode -> decode across dtypes, NaN/inf payloads, constant, empty and
  single-row columns (Hypothesis + targeted constructions);
* **corruption fuzz** — flipped bytes and truncations in codec payloads
  raise a clean :class:`ColumnarFormatError`, never silently wrong data;
* **container fuzz** — the same holds for whole ``.rcs`` shards: any
  single-byte flip or truncation either errors or reads back identical
  (flips can land in alignment padding).
"""

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.frame.encodings as enc
from repro.frame.columnar import load_rcs, open_rcs, save_rcs
from repro.frame.encodings import (
    CODECS,
    ColumnarFormatError,
    compression_mode,
    decode_column,
    encode_column,
    frame_compress,
    frame_decompress,
    varint_decode,
    varint_encode,
    zigzag_decode,
    zigzag_encode,
)
from repro.frame.table import Table


def roundtrip(arr: np.ndarray, mode: str = "auto") -> np.ndarray:
    """encode_column -> decode_column, returning the original when the
    selector stores raw (callers assert on codec when they need one)."""
    got = encode_column(np.ascontiguousarray(arr), mode=mode)
    if got is None:
        return arr
    meta, payload = got
    return decode_column(meta, payload, arr.dtype, len(arr))


def assert_bitwise_equal(a: np.ndarray, b: np.ndarray):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    # byte-level view compares NaN payloads too, not just value equality
    assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestPrimitives:
    @given(hnp.arrays(np.int64, st.integers(0, 300)))
    @settings(max_examples=60, deadline=None)
    def test_zigzag_roundtrip(self, d):
        assert np.array_equal(zigzag_decode(zigzag_encode(d)), d)

    @given(hnp.arrays(np.uint64, st.integers(0, 300)))
    @settings(max_examples=60, deadline=None)
    def test_varint_roundtrip(self, v):
        assert np.array_equal(varint_decode(varint_encode(v), len(v)), v)

    def test_varint_fast_path_matches_general(self):
        # all-single-byte streams take a shortcut; mixed streams do not —
        # both must agree with the encoder
        small = np.arange(100, dtype=np.uint64)          # all < 128
        mixed = np.array([1, 127, 128, 1 << 40, 0], dtype=np.uint64)
        for v in (small, mixed):
            assert np.array_equal(varint_decode(varint_encode(v), len(v)), v)

    def test_varint_count_mismatch(self):
        buf = varint_encode(np.arange(10, dtype=np.uint64))
        with pytest.raises(ColumnarFormatError, match="varint"):
            varint_decode(buf, 11)
        with pytest.raises(ColumnarFormatError, match="varint"):
            varint_decode(buf, 9)

    def test_varint_empty_contract(self):
        assert len(varint_decode(b"", 0)) == 0
        with pytest.raises(ColumnarFormatError, match="varint"):
            varint_decode(b"\x01", 0)
        with pytest.raises(ColumnarFormatError, match="varint"):
            varint_decode(b"", 3)

    def test_frame_roundtrip_and_incompressible_fallback(self):
        smooth = bytes(1000)
        tag, framed = frame_compress(smooth)
        assert tag != "none" and len(framed) < len(smooth)
        assert frame_decompress(tag, framed, len(smooth) + 1) == smooth
        noise = np.random.default_rng(0).bytes(64)
        tag2, framed2 = frame_compress(noise)
        assert tag2 == "none" and framed2 == noise

    def test_frame_unknown_tag(self):
        with pytest.raises(ColumnarFormatError, match="cannot decode"):
            frame_decompress("lz77", b"xx", 16)

    def test_frame_corrupt_payload(self):
        tag, framed = frame_compress(bytes(1000))
        with pytest.raises(ColumnarFormatError, match="corrupt"):
            frame_decompress(tag, framed[:-3], 2000)

    def test_frame_stops_at_its_limit(self):
        tag, framed = frame_compress(bytes(1000))
        assert frame_decompress(tag, framed, 1001) == bytes(1000)
        for limit in (999, 1000):  # a stream that reaches the limit
            with pytest.raises(ColumnarFormatError, match="bound"):
                frame_decompress(tag, framed, limit)

    def test_compression_mode_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RCS_COMPRESSION", raising=False)
        assert compression_mode() == "auto"
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", "off")
        assert compression_mode() == "off"
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", "lots")
        with pytest.raises(ValueError, match="REPRO_RCS_COMPRESSION"):
            compression_mode()


class TestCodecRoundtrips:
    """Every encoder, exercised by a column it is the natural choice for."""

    def test_delta_sorted_ints(self):
        arr = np.cumsum(np.random.default_rng(1).integers(0, 5, 4000))
        meta, payload = enc._try_delta(arr)
        assert meta["codec"] == "delta"
        meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
        out = decode_column(meta, payload, arr.dtype, len(arr))
        assert_bitwise_equal(out, arr)

    @pytest.mark.parametrize("dtype", ["i1", "i2", "i4", "i8",
                                       "u1", "u2", "u4", "u8"])
    def test_delta_all_int_widths(self, dtype):
        rng = np.random.default_rng(2)
        info = np.iinfo(np.dtype(dtype))
        # values beyond +-2^62 opt out of the int64 delta stack by design
        lo, hi = max(info.min, -(1 << 61)), min(info.max, 1 << 61)
        arr = rng.integers(lo, hi, 500, dtype=dtype, endpoint=True)
        meta, payload = enc._try_delta(arr)
        meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
        assert_bitwise_equal(
            decode_column(meta, payload, arr.dtype, len(arr)), arr
        )

    @pytest.mark.parametrize("lsb", [1.0, 0.5, 0.1, 0.01])
    def test_qdelta_quantized_floats(self, lsb):
        rng = np.random.default_rng(3)
        ints = np.cumsum(rng.integers(-40, 40, 3000))
        arr = ints * lsb  # true quantization: exact multiples
        meta, payload = enc._try_qdelta(arr)
        assert meta["codec"] == "qdelta" and meta["lsb"] <= lsb
        meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
        assert_bitwise_equal(
            decode_column(meta, payload, arr.dtype, len(arr)), arr
        )

    def test_qdelta_refuses_lossy(self):
        # irrational-ish values: no probed LSB reconstructs bit-exactly
        arr = np.sqrt(np.arange(1, 100, dtype=np.float64))
        assert enc._try_qdelta(arr) is None
        # and NaN/inf are never quantized
        assert enc._try_qdelta(np.array([1.0, np.nan])) is None
        assert enc._try_qdelta(np.array([1.0, np.inf])) is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64,
                                       np.uint16, np.bool_])
    def test_fxor_all_widths(self, dtype):
        rng = np.random.default_rng(4)
        if dtype is np.bool_:
            arr = rng.random(800) < 0.3
        else:
            arr = (rng.normal(2000, 1, 800) // 1).astype(dtype)
        meta, payload = enc._try_fxor(np.ascontiguousarray(arr))
        meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
        assert_bitwise_equal(
            decode_column(meta, payload, arr.dtype, len(arr)), arr
        )

    def test_fxor_strings(self):
        arr = np.array(["cabinet-a", "cabinet-a", "cabinet-b"] * 50)
        meta, payload = enc._try_fxor(arr)
        meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
        out = decode_column(meta, payload, arr.dtype, len(arr))
        assert np.array_equal(out, arr)

    def test_fxor_nan_and_inf_payloads(self):
        # XOR is bit-transparent: NaN payload bits survive exactly
        arr = np.array([np.nan, -np.inf, np.inf, 0.0, -0.0, 1e300])
        weird_nan = np.frombuffer(
            np.uint64(0x7FF80000DEADBEEF).tobytes(), dtype=np.float64
        )
        arr = np.concatenate([arr, weird_nan])
        meta, payload = enc._try_fxor(arr)
        meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
        assert_bitwise_equal(
            decode_column(meta, payload, arr.dtype, len(arr)), arr
        )

    @pytest.mark.parametrize("k", [1, 2, 200, 300])
    def test_dict_cardinalities(self, k):
        rng = np.random.default_rng(5)
        values = np.array([f"dom-{i:04d}" for i in range(k)])
        arr = values[rng.integers(0, k, 5000)]
        meta, payload = enc._try_dict(arr)
        assert meta["codec"] == "dict" and meta["n_values"] == k
        # 1-byte codes up to 256 values, 2-byte beyond
        assert np.dtype(meta["codes"]).itemsize == (1 if k <= 256 else 2)
        meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
        out = decode_column(meta, payload, arr.dtype, len(arr))
        assert np.array_equal(out, arr)

    def test_dict_int_keys(self):
        arr = np.repeat(np.arange(6, dtype=np.int64), 400)
        meta, payload = enc._try_dict(arr)
        meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
        assert_bitwise_equal(
            decode_column(meta, payload, arr.dtype, len(arr)), arr
        )

    def test_dict_gives_up_on_high_cardinality(self):
        arr = np.arange(10_000, dtype=np.int64)  # all distinct
        assert enc._try_dict(arr) is None

    def test_zframe_roundtrip(self):
        arr = np.zeros(1000, dtype="U4")
        arr[::7] = "busy"
        got = enc._try_zframe(arr)
        assert got is not None
        meta, payload = got
        meta["crc"] = zlib.crc32(payload) & 0xFFFFFFFF
        out = decode_column(meta, payload, arr.dtype, len(arr))
        assert np.array_equal(out, arr)


class TestSelector:
    def test_mode_off_never_encodes(self):
        arr = np.zeros(4096, dtype=np.float64)
        assert encode_column(arr, mode="off") is None

    def test_empty_and_raw_fallback(self):
        assert encode_column(np.zeros(0, dtype=np.float64)) is None
        noise = np.random.default_rng(6).bytes(8 * 512)
        arr = np.frombuffer(noise, dtype=np.uint64).copy()
        # cryptographic noise: nothing shrinks it, selector stores raw
        assert encode_column(arr) is None

    def test_float_columns_never_dictionary_coded(self):
        # np.unique collapses NaN payloads; dict would be lossy for floats
        arr = np.tile(np.array([1.0, 2.0, np.nan]), 1000)
        got = encode_column(arr)
        assert got is None or got[0]["codec"] != "dict"

    def test_selected_meta_carries_crc_and_raw(self):
        arr = np.arange(4096, dtype=np.float64)
        meta, payload = encode_column(arr)
        assert meta["crc"] == (zlib.crc32(payload) & 0xFFFFFFFF)
        assert meta["raw"] == arr.nbytes
        assert meta["codec"] in CODECS
        assert len(payload) < arr.nbytes

    @given(
        hnp.arrays(
            dtype=st.sampled_from(
                [np.dtype(s) for s in
                 ("i8", "i4", "u2", "f8", "f4", "U5", "?")]
            ),
            shape=st.integers(0, 400),
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_property_any_column_roundtrips(self, arr):
        # whatever the selector picks (or raw), the bytes survive exactly
        out = roundtrip(np.ascontiguousarray(arr))
        if arr.dtype.kind == "U":
            assert np.array_equal(out, arr)
        else:
            assert_bitwise_equal(out, np.ascontiguousarray(arr))

    @pytest.mark.parametrize(
        "arr",
        [
            np.zeros(0, dtype=np.float64),            # empty
            np.array([42.5]),                          # single row
            np.full(1000, 7.25),                       # constant float
            np.full(1000, -3, dtype=np.int32),         # constant int
            np.array(["x"]),                           # single string
            np.full(1000, np.nan),                     # all NaN
            np.array([np.inf, -np.inf] * 500),         # inf runs
        ],
        ids=["empty", "one-row", "const-f", "const-i", "one-str",
             "all-nan", "inf-runs"],
    )
    def test_edge_shapes(self, arr):
        out = roundtrip(arr)
        if arr.dtype.kind == "U":
            assert np.array_equal(out, arr)
        else:
            assert_bitwise_equal(out, arr)


class TestPayloadCorruption:
    """Flipped/truncated codec payloads must raise, never misdecode."""

    def encoded(self, arr=None):
        if arr is None:
            arr = np.cumsum(
                np.random.default_rng(7).integers(0, 9, 2000)
            ) * 0.1
        meta, payload = encode_column(np.ascontiguousarray(arr))
        return arr, meta, payload

    def test_any_single_flip_is_caught(self):
        arr, meta, payload = self.encoded()
        rng = np.random.default_rng(8)
        for pos in rng.integers(0, len(payload), 25):
            for bit in (0x01, 0x80):
                bad = bytearray(payload)
                bad[pos] ^= bit
                with pytest.raises(ColumnarFormatError, match="CRC"):
                    decode_column(meta, bytes(bad), arr.dtype, len(arr))

    def test_any_truncation_is_caught(self):
        arr, meta, payload = self.encoded()
        for cut in (0, 1, len(payload) // 2, len(payload) - 1):
            with pytest.raises(ColumnarFormatError):
                decode_column(meta, payload[:cut], arr.dtype, len(arr))

    def test_crc_forged_truncation_still_caught(self):
        # even if an attacker fixes the CRC, structural checks fire
        arr, meta, payload = self.encoded()
        cut = payload[: len(payload) - 4]
        meta = dict(meta, crc=zlib.crc32(cut) & 0xFFFFFFFF)
        with pytest.raises(ColumnarFormatError):
            decode_column(meta, cut, arr.dtype, len(arr))

    def test_dict_code_out_of_range(self):
        arr = np.repeat(np.arange(4, dtype=np.int64), 100)
        meta, payload = enc._try_dict(arr)
        raw = bytearray(frame_decompress(meta["frame"], payload, 10_000))
        raw[-1] = 250  # a code far beyond n_values=4
        tag, framed = frame_compress(bytes(raw))
        meta = dict(meta, frame=tag,
                    crc=zlib.crc32(framed) & 0xFFFFFFFF)
        with pytest.raises(ColumnarFormatError, match="dict"):
            decode_column(meta, framed, arr.dtype, len(arr))

    def test_inflate_bomb_stops_at_the_column_bound(self):
        # a valid-CRC frame of 32 MiB of zeros, claimed by a 1,000-row
        # column: inflation must stop near the column's bound instead of
        # materialising the whole stream before the size check
        deflate = zlib.compressobj(9)
        zeros = bytes(1 << 20)
        bomb = b"".join(deflate.compress(zeros) for _ in range(32))
        bomb += deflate.flush()
        meta = {"codec": "fxor", "frame": "zlib", "raw": 8000,
                "crc": zlib.crc32(bomb) & 0xFFFFFFFF}
        tracemalloc.start()
        try:
            with pytest.raises(ColumnarFormatError):
                decode_column(meta, bomb, np.dtype("<f8"), 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("codec", ["fxor", "zframe"])
    def test_fixed_width_frame_inflates_no_further_than_its_column(self, codec):
        # a valid-CRC frame of twice the column's bytes: a fixed-width
        # codec's bound is its column's bytes plus one, so inflation stops
        # there.  The column is 800 KB so zlib's window and the step
        # buffers (~80 KiB, fixed) stay inside the margin.
        n = 100_000
        column = n * 8
        deflate = zlib.compressobj(9)
        framed = deflate.compress(bytes(2 * column)) + deflate.flush()
        meta = {"codec": codec, "frame": "zlib", "raw": column,
                "crc": zlib.crc32(framed) & 0xFFFFFFFF}
        tracemalloc.start()
        try:
            with pytest.raises(ColumnarFormatError):
                decode_column(meta, framed, np.dtype("<f8"), n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * column

    def test_wrong_row_count_claims(self):
        arr, meta, payload = self.encoded()
        meta = dict(meta)
        with pytest.raises(ColumnarFormatError):
            decode_column(meta, payload, arr.dtype, len(arr) + 1)
        with pytest.raises(ColumnarFormatError):
            decode_column(meta, payload, arr.dtype, max(0, len(arr) - 1))
        # a row count no inflate bound can hold is refused the same way
        with pytest.raises(ColumnarFormatError):
            decode_column(meta, payload, arr.dtype, 1 << 80)

    def test_unknown_codec_and_bad_lsb(self):
        arr, meta, payload = self.encoded()
        bad = dict(meta, codec="rot13")
        with pytest.raises(ColumnarFormatError, match="codec"):
            decode_column(bad, payload, arr.dtype, len(arr))
        if meta["codec"] == "qdelta":
            for lsb in (0.0, float("nan"), float("inf")):
                with pytest.raises(ColumnarFormatError, match="lsb"):
                    decode_column(dict(meta, lsb=lsb), payload,
                                  arr.dtype, len(arr))


class TestPreviousFraming:
    """Shards framed by the previous writer call stay readable."""

    COLUMNS = {
        "delta": np.cumsum(np.random.default_rng(21).integers(0, 5, 3000)),
        "qdelta": np.cumsum(
            np.random.default_rng(22).integers(-9, 9, 3000)) * 0.25,
        "fxor": np.repeat(np.random.default_rng(23).normal(size=300), 10),
        "dict": np.array([f"cab-{i % 6}" for i in range(3000)]),
        "zframe": np.array(["idle", "busy", "drain"] * 1000, dtype="U12"),
    }

    @pytest.mark.parametrize("codec", sorted(COLUMNS))
    def test_level6_default_frames_decode_identically(self, codec):
        arr = self.COLUMNS[codec]
        meta, framed = getattr(enc, f"_try_{codec}")(arr)
        assert (meta["codec"], meta["frame"]) == (codec, "zlib")
        limit = len(arr) * (arr.dtype.itemsize + 10) + 8
        payload = frame_decompress(meta["frame"], framed, limit)
        old = zlib.compress(payload, 6)
        old_meta = dict(meta, frame="zlib", raw=arr.nbytes,
                        crc=zlib.crc32(old) & 0xFFFFFFFF)
        new_meta = dict(meta, raw=arr.nbytes,
                        crc=zlib.crc32(framed) & 0xFFFFFFFF)
        got_old = decode_column(old_meta, old, arr.dtype, len(arr))
        got_new = decode_column(new_meta, framed, arr.dtype, len(arr))
        assert got_old.tobytes() == got_new.tobytes() == arr.tobytes()


def _fuzz_table() -> Table:
    """Every column encodable, so every data byte is CRC-protected."""
    rng = np.random.default_rng(9)
    n = 600
    return Table({
        "timestamp": np.arange(n, dtype=np.float64),
        "power": np.cumsum(rng.integers(-20, 20, n)) * 0.1,
        "cabinet": np.array([f"cab-{i % 8}" for i in range(n)]),
        "node": rng.integers(0, 16, n),
    })


class TestContainerFuzz:
    """Whole-shard corruption: clean errors or provably identical reads."""

    @pytest.fixture(scope="class")
    def shard(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "t.rcs"
        table = _fuzz_table()
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_RCS_COMPRESSION", "auto")
            save_rcs(table, path)
        rf = open_rcs(path)
        assert set(rf.codecs.values()) & {"delta", "qdelta", "dict"}
        assert "raw" not in rf.codecs.values()
        return path, table

    def test_every_byte_flip_errors_or_reads_identical(self, shard, tmp_path):
        path, table = shard
        blob = path.read_bytes()
        rng = np.random.default_rng(10)
        positions = np.unique(
            np.concatenate([
                rng.integers(0, len(blob), 120),       # anywhere
                len(blob) - 1 - rng.integers(0, 64, 20),  # trailer-focused
                rng.integers(0, 128, 20),              # header-focused
            ])
        )
        bad_path = tmp_path / "bad.rcs"
        survived = 0
        for pos in positions:
            bad = bytearray(blob)
            bad[pos] ^= 0xFF
            bad_path.write_bytes(bytes(bad))
            try:
                got = load_rcs(bad_path)
            except ColumnarFormatError:
                continue
            # flip landed in alignment padding: data must be untouched
            survived += 1
            for c in table.columns:
                assert np.array_equal(got[c], table[c]), (pos, c)
        # most flips must actually be detected (padding is a thin slice)
        assert survived < len(positions) // 4

    def test_every_truncation_errors(self, shard, tmp_path):
        path, _ = shard
        blob = path.read_bytes()
        rng = np.random.default_rng(11)
        cuts = sorted({0, 1, 3, 4, len(blob) - 1, len(blob) - 4,
                       len(blob) - 12, len(blob) - 16,
                       *map(int, rng.integers(0, len(blob), 40))})
        bad_path = tmp_path / "cut.rcs"
        for cut in cuts:
            bad_path.write_bytes(blob[:cut])
            with pytest.raises(ColumnarFormatError):
                load_rcs(bad_path)

    def test_footer_crc_guards_metadata(self, shard, tmp_path):
        path, _ = shard
        blob = bytearray(path.read_bytes())
        # find a byte inside the JSON footer and flip it: the v2 footer
        # CRC must catch it before json/schema parsing even starts
        footer_pos = bytes(blob).rindex(b'"columns"')
        blob[footer_pos + 1] ^= 0x01
        bad = tmp_path / "footer.rcs"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ColumnarFormatError, match="CRC|footer"):
            open_rcs(bad)

    def test_raw_shard_structural_validation_still_applies(self, tmp_path,
                                                           monkeypatch):
        # compression off: the v1-era structural errors are preserved
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", "off")
        path = tmp_path / "raw.rcs"
        save_rcs(_fuzz_table(), path)
        rf = open_rcs(path)
        assert set(rf.codecs.values()) == {"raw"}
        blob = path.read_bytes()
        bad = tmp_path / "short.rcs"
        bad.write_bytes(blob[:10])
        with pytest.raises(ValueError, match="too short|trailer"):
            open_rcs(bad)
