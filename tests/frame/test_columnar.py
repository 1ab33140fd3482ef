"""The .rcs columnar shard format: roundtrips, zone maps, mmap lifetime."""

import gc
import os
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.frame import columnar
from repro.frame import (
    RcsFile,
    Table,
    load_npz,
    load_rcs,
    open_rcs,
    save_npz,
    save_rcs,
    zone_map,
)
from repro.frame.encodings import ColumnarFormatError
from repro.parallel.executor import Executor


def make():
    return Table(
        {
            "i": np.array([3, -2, 1, 9], dtype=np.int64),
            "u": np.array([0, 7, 7, 255], dtype=np.uint16),
            "f": np.array([1.5, np.nan, -2.25, 0.0]),
            "s": np.array(["abc", "", "z9", "mm"]),
            "b": np.array([True, False, True, True]),
        }
    )


def assert_tables_identical(a: Table, b: Table):
    assert a.columns == b.columns
    assert a.n_rows == b.n_rows
    for c in a.columns:
        assert a[c].dtype == b[c].dtype, c
        assert np.array_equal(a[c], b[c], equal_nan=a[c].dtype.kind == "f"), c


class TestRoundtrip:
    def test_all_dtypes(self, tmp_path):
        t = make()
        n = save_rcs(t, tmp_path / "t.rcs")
        assert n == (tmp_path / "t.rcs").stat().st_size
        assert_tables_identical(load_rcs(tmp_path / "t.rcs"), t)

    def test_matches_npz_bit_for_bit(self, tmp_path):
        t = make()
        save_rcs(t, tmp_path / "t.rcs")
        save_npz(t, tmp_path / "t.npz")
        assert_tables_identical(
            load_rcs(tmp_path / "t.rcs"), load_npz(tmp_path / "t.npz")
        )

    def test_empty_table(self, tmp_path):
        t = Table({"a": np.empty(0, np.float64), "s": np.empty(0, "U3")})
        save_rcs(t, tmp_path / "e.rcs")
        out = load_rcs(tmp_path / "e.rcs")
        assert out.n_rows == 0
        assert out.columns == ["a", "s"]
        assert out["s"].dtype == np.dtype("U3")

    def test_big_endian_normalized(self, tmp_path):
        t = Table({"x": np.array([1, 2, 3], dtype=">i8")})
        save_rcs(t, tmp_path / "t.rcs")
        out = load_rcs(tmp_path / "t.rcs")
        assert out["x"].dtype == np.dtype("<i8")
        assert np.array_equal(out["x"], [1, 2, 3])

    def test_atomic_write(self, tmp_path):
        t = make()
        save_rcs(t, tmp_path / "t.rcs")
        assert_tables_identical(load_rcs(tmp_path / "t.rcs"), t)
        assert not list(tmp_path.glob(".*tmp"))


# one column per supported dtype kind, arbitrary contents
_ELEMENTS = {
    "f8": st.floats(allow_infinity=True, allow_nan=True, width=64),
    "i8": st.integers(min_value=-(2**62), max_value=2**62),
    "u4": st.integers(min_value=0, max_value=2**32 - 1),
    "?": st.booleans(),
    "U8": st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FFF),
        max_size=8,
    ),
}


class TestRoundtripProperties:
    @given(
        n=st.integers(min_value=0, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_contents_roundtrip(self, n, data, tmp_path_factory):
        cols = {
            name: data.draw(hnp.arrays(np.dtype(name), n, elements=el))
            for name, el in _ELEMENTS.items()
        }
        t = Table(cols)
        root = tmp_path_factory.mktemp("rcs")
        save_rcs(t, root / "t.rcs")
        assert_tables_identical(load_rcs(root / "t.rcs"), t)

    @given(
        n=st.integers(min_value=1, max_value=64),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_projection_identical_to_full(self, n, data, tmp_path_factory):
        cols = {
            name: data.draw(hnp.arrays(np.dtype(name), n, elements=el))
            for name, el in _ELEMENTS.items()
        }
        t = Table(cols)
        root = tmp_path_factory.mktemp("rcs")
        save_rcs(t, root / "t.rcs")
        pick = data.draw(
            st.lists(st.sampled_from(list(cols)), min_size=1, unique=True)
        )
        assert_tables_identical(
            open_rcs(root / "t.rcs").read(pick), t.select(pick)
        )


class TestProjection:
    def test_subset_and_order(self, tmp_path):
        save_rcs(make(), tmp_path / "t.rcs")
        out = open_rcs(tmp_path / "t.rcs").read(["s", "i"])
        assert out.columns == ["s", "i"]
        assert_tables_identical(out, make().select(["s", "i"]))

    def test_missing_column_raises(self, tmp_path):
        save_rcs(make(), tmp_path / "t.rcs")
        with pytest.raises(KeyError, match="nope"):
            open_rcs(tmp_path / "t.rcs").read(["nope"])

    def test_reads_are_views_not_copies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", "off")
        save_rcs(make(), tmp_path / "t.rcs")
        out = open_rcs(tmp_path / "t.rcs").read(["f"])
        base = out["f"]
        while not isinstance(base, np.memmap):
            base = base.base
            assert base is not None, "column is a fresh copy, not a view"
        assert isinstance(base, np.memmap)

    def test_encoded_reads_are_cached_per_reader(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", "auto")
        t = Table({"t": np.arange(512, dtype=np.float64)})
        save_rcs(t, tmp_path / "t.rcs")
        rf = open_rcs(tmp_path / "t.rcs")
        assert rf.codecs["t"] != "raw"
        first = rf.read(["t"])["t"]
        second = rf.read(["t"])["t"]
        assert first is second, "decode should happen once per reader"
        assert not first.flags.writeable


class TestZoneMaps:
    def test_float_ignores_nan(self):
        z = zone_map(Table({"f": np.array([np.nan, 2.0, -1.0])}))["f"]
        assert z["min"] == -1.0 and z["max"] == 2.0
        assert z["nulls"] == 1
        assert z["sorted"] is False

    def test_all_nan_column(self):
        z = zone_map(Table({"f": np.array([np.nan, np.nan])}))["f"]
        assert z["min"] is None and z["max"] is None
        assert z["nulls"] == 2

    def test_sorted_flag(self):
        z = zone_map(Table({"t": np.array([0.0, 1.0, 1.0, 5.0])}))["t"]
        assert z["sorted"] is True
        z = zone_map(Table({"t": np.array([0.0, 2.0, 1.0])}))["t"]
        assert z["sorted"] is False

    def test_string_bounds(self):
        z = zone_map(Table({"s": np.array(["mm", "ab", "zz"])}))["s"]
        assert z["min"] == "ab" and z["max"] == "zz"

    def test_json_safe(self, tmp_path):
        import json

        json.dumps(zone_map(make()))  # must not raise

    def test_persisted_in_footer(self, tmp_path):
        save_rcs(make(), tmp_path / "t.rcs")
        zones = {name: meta["zone"]
                 for name, meta in open_rcs(tmp_path / "t.rcs")._cols.items()}
        assert zones == zone_map(make())


class TestTimeRange:
    def test_sorted_slice(self, tmp_path):
        t = Table(
            {
                "timestamp": np.arange(100, dtype=np.float64),
                "v": np.arange(100, dtype=np.float64) * 2,
            }
        )
        save_rcs(t, tmp_path / "t.rcs")
        out = open_rcs(tmp_path / "t.rcs").read_time_range(10.0, 20.0)
        assert np.array_equal(out["timestamp"], np.arange(10.0, 20.0))
        assert np.array_equal(out["v"], np.arange(10.0, 20.0) * 2)

    def test_unsorted_mask(self, tmp_path):
        rng = np.random.default_rng(3)
        ts = rng.permutation(100).astype(np.float64)
        t = Table({"timestamp": ts, "v": ts * 2})
        save_rcs(t, tmp_path / "t.rcs")
        out = open_rcs(tmp_path / "t.rcs").read_time_range(10.0, 20.0)
        keep = (ts >= 10.0) & (ts < 20.0)
        assert_tables_identical(out, t.filter(keep))

    def test_missing_time_raises(self, tmp_path):
        save_rcs(make(), tmp_path / "t.rcs")
        with pytest.raises(KeyError, match="timestamp"):
            open_rcs(tmp_path / "t.rcs").read_time_range(0.0, 1.0)


class TestLifetime:
    def test_table_survives_reader_gc(self, tmp_path):
        save_rcs(make(), tmp_path / "t.rcs")
        out = load_rcs(tmp_path / "t.rcs")  # RcsFile is unreachable after this
        gc.collect()
        assert_tables_identical(out, make())

    def test_derived_table_survives_parent_gc(self, tmp_path):
        save_rcs(make(), tmp_path / "t.rcs")
        sub = load_rcs(tmp_path / "t.rcs")[1:3]
        gc.collect()
        assert np.array_equal(sub["i"], [-2, 1])

    @pytest.mark.skipif(os.name != "posix", reason="POSIX unlink semantics")
    def test_table_survives_file_unlink(self, tmp_path):
        save_rcs(make(), tmp_path / "t.rcs")
        out = load_rcs(tmp_path / "t.rcs")
        os.unlink(tmp_path / "t.rcs")
        gc.collect()
        assert_tables_identical(out, make())

    def test_owner_dropped_on_pickle(self, tmp_path):
        save_rcs(make(), tmp_path / "t.rcs")
        out = load_rcs(tmp_path / "t.rcs")
        assert out.owner is not None
        clone = pickle.loads(pickle.dumps(out))
        assert clone.owner is None
        assert_tables_identical(clone, out)


class TestFormatErrors:
    def test_truncated_file(self, tmp_path):
        (tmp_path / "x.rcs").write_bytes(b"RC")
        with pytest.raises(ValueError, match="too short"):
            open_rcs(tmp_path / "x.rcs")

    def test_bad_trailer(self, tmp_path):
        save_rcs(make(), tmp_path / "t.rcs")
        raw = (tmp_path / "t.rcs").read_bytes()
        (tmp_path / "t.rcs").write_bytes(raw[:-4] + b"XXXX")
        with pytest.raises(ValueError, match="trailer"):
            open_rcs(tmp_path / "t.rcs")

    def test_corrupt_footer_length(self, tmp_path):
        import struct

        save_rcs(make(), tmp_path / "t.rcs")
        raw = (tmp_path / "t.rcs").read_bytes()
        bad = raw[:-12] + struct.pack("<Q", 1 << 40) + raw[-4:]
        (tmp_path / "t.rcs").write_bytes(bad)
        with pytest.raises(ValueError, match="footer length"):
            open_rcs(tmp_path / "t.rcs")

    def test_rcs1_file_rejected(self, tmp_path):
        # the retired version 1 layout: (len, magic) trailer, no footer CRC
        import json
        import struct

        col = np.arange(8, dtype=np.float64)
        footer = json.dumps({"version": 1, "n_rows": 8, "columns": [{
            "name": "x", "dtype": "<f8", "offset": 64, "nbytes": 64,
            "zone": {"min": 0.0, "max": 7.0, "nulls": 0, "sorted": True},
        }]}).encode()
        path = tmp_path / "old.rcs"
        path.write_bytes(
            b"RCS1" + b"\0" * 60 + col.tobytes() + footer
            + struct.pack("<Q", len(footer)) + b"RCS1"
        )
        with pytest.raises(ColumnarFormatError, match="trailer magic") as err:
            open_rcs(path)
        assert str(path) in str(err.value)


class TestNpzProjection:
    def test_uncompressed_member_direct_read(self, tmp_path):
        # np.savez writes ZIP_STORED members; save_npz only deflated ones
        t = make()
        np.savez(
            tmp_path / "t.npz", **{c: t[c] for c in t.columns}
        )
        assert_tables_identical(load_npz(tmp_path / "t.npz"), t)

    def test_atomic_fsync_write(self, tmp_path):
        t = make()
        save_npz(t, tmp_path / "t.npz")
        assert_tables_identical(load_npz(tmp_path / "t.npz"), t)
        assert not list(tmp_path.glob(".*tmp"))

def _mixed_table(n=800):
    """Columns that land on several codecs and on raw."""
    rng = np.random.default_rng(21)
    return Table({
        "t": np.arange(n, dtype=np.float64),             # qdelta
        "node": np.arange(n, dtype=np.int64) % 16,       # dict/delta
        "power": np.cumsum(rng.integers(-3, 4, n)) * 0.1,  # qdelta
        "noise": rng.normal(0.0, 1e9, n),                # raw
    })


class TestMadvise:
    """Readahead hints: purely advisory, issued once per column."""

    def test_advise_is_idempotent_per_column(self, tmp_path):
        save_rcs(_mixed_table(), tmp_path / "w.rcs")
        r = open_rcs(tmp_path / "w.rcs")
        r.read(["t"])
        r.read(["t", "node"])
        assert {"t", "node"} <= r._advised


# the codec battery's dtypes (tests/frame/test_encodings.py): ints of
# every width, both floats (hnp draws -0.0 / NaN / inf), bools, strings
_DTYPES = [np.dtype(s) for s in
           ("i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8",
            "f4", "f8", "?", "U5", "S4")]


@st.composite
def _tables(draw):
    n = draw(st.sampled_from([0, 1, 2, 17, 200]))
    dtypes = draw(st.lists(st.sampled_from(_DTYPES), min_size=1, max_size=6))
    return Table({
        f"c{i}": draw(hnp.arrays(dt, n)) for i, dt in enumerate(dtypes)
    })


def _wide_pool(monkeypatch, cap: str | None):
    """A four-core host (so the codec pool is real on any runner) under
    ``REPRO_MAX_WORKERS=cap`` (None: unset)."""
    monkeypatch.setattr(columnar.os, "cpu_count", lambda: 4)
    if cap is None:
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_MAX_WORKERS", cap)


def _telemetry_like(seed: int, n: int = 3000) -> Table:
    rng = np.random.default_rng(seed)
    return Table({
        "timestamp": np.arange(n, dtype=np.float64),
        "node": np.repeat(np.arange(n // 100, dtype=np.int64), 100),
        "power": np.cumsum(rng.integers(-40, 40, n)) * 0.1,
        "temp": (rng.normal(2000, 1, n) // 1).astype(np.float64),
        "cabinet": np.array([f"cab-{i % 8}" for i in range(n)]),
        "up": rng.random(n) < 0.9,
    })


def _save_load_worker(args):
    """Process-pool task (module-level: picklable under spawn)."""
    seed, path = args
    table = _telemetry_like(seed)
    save_rcs(table, path)
    return path.read_bytes(), load_rcs(path) == table


class TestColumnParallelEncode:
    """``save_rcs`` encodes one column per pool task; the file is laid
    out serially afterwards, so no byte depends on the pool."""

    @given(table=_tables())
    @settings(max_examples=40, deadline=None)
    def test_bytes_do_not_depend_on_workers(self, table, tmp_path_factory):
        root = tmp_path_factory.mktemp("workers")
        with pytest.MonkeyPatch.context() as mp:
            for cap in ("1", "2", None):
                _wide_pool(mp, cap)
                save_rcs(table, root / f"{cap}.rcs")
        serial = (root / "1.rcs").read_bytes()
        assert (root / "2.rcs").read_bytes() == serial
        assert (root / "None.rcs").read_bytes() == serial
        r = open_rcs(root / "None.rcs")
        assert r.columns == list(r.codecs) == table.columns

    def test_concurrent_saves_match_serial(self, tmp_path, monkeypatch):
        _wide_pool(monkeypatch, None)
        tables = [_telemetry_like(seed) for seed in range(4)]
        for i, t in enumerate(tables):
            save_rcs(t, tmp_path / f"serial-{i}.rcs")
        threads = [
            threading.Thread(target=save_rcs,
                             args=(t, tmp_path / f"threaded-{i}.rcs"))
            for i, t in enumerate(tables)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
        for i in range(4):
            assert (tmp_path / f"threaded-{i}.rcs").read_bytes() == (
                tmp_path / f"serial-{i}.rcs").read_bytes()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_column_writes_nothing(self, tmp_path, monkeypatch,
                                          existing):
        _wide_pool(monkeypatch, None)
        table = _telemetry_like(0)
        bad = np.ascontiguousarray(table["temp"])
        real = columnar.encode_column

        def flaky(arr, mode="auto"):
            if arr.dtype == bad.dtype and np.array_equal(arr, bad):
                raise RuntimeError("codec fell over")
            return real(arr, mode=mode)

        monkeypatch.setattr(columnar, "encode_column", flaky)
        before = threading.active_count()
        path = tmp_path / "out" / "t.rcs"
        if existing:
            # an older shard at the target survives the failed rewrite
            path.parent.mkdir()
            path.write_bytes(b"old shard")
        with pytest.raises(RuntimeError, match="codec fell over") as err:
            save_rcs(table, path)
        assert err.value.__notes__ == [f"column 'temp' of {path}"]
        if existing:
            assert list(path.parent.iterdir()) == [path]
            assert path.read_bytes() == b"old shard"
        else:
            assert not path.parent.exists()
        assert threading.active_count() == before

    @pytest.mark.parametrize("mp_context", ["fork", "spawn"])
    def test_process_workers_after_a_pooled_write(self, tmp_path, monkeypatch,
                                                  mp_context):
        # the parent has used (and torn down) a codec pool before the
        # workers fork: nothing thread-less may be inherited
        _wide_pool(monkeypatch, None)
        save_rcs(_telemetry_like(9), tmp_path / "parent.rcs")
        jobs = [(seed, tmp_path / f"{mp_context}-{seed}.rcs")
                for seed in range(4)]
        done: list = []
        runner = threading.Thread(
            target=lambda: done.extend(
                Executor(backend="processes", max_workers=2,
                         mp_context=mp_context).map(_save_load_worker, jobs)
            ),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "process workers hung in save_rcs"
        assert len(done) == 4
        for (seed, _), (blob, same) in zip(jobs, done):
            assert same
            save_rcs(_telemetry_like(seed), tmp_path / "want.rcs")
            assert blob == (tmp_path / "want.rcs").read_bytes()

    def test_projected_read_same_under_any_cap(self, tmp_path, monkeypatch):
        table = _telemetry_like(3)
        save_rcs(table, tmp_path / "t.rcs")
        pick = ["power", "timestamp", "cabinet", "up"]
        got = []
        for cap in ("1", "2"):
            _wide_pool(monkeypatch, cap)
            got.append(open_rcs(tmp_path / "t.rcs").read(pick))
        assert got[0] == got[1] == table.select(pick)


class TestColumnErrorContext:
    """A corrupt payload's error says which column of which file."""

    # one column per codec family, each the selector's pick
    CASES = {
        "delta": lambda rng: np.cumsum(rng.integers(0, 5, 2400)),
        "qdelta": lambda rng: np.cumsum(rng.integers(-40, 40, 2400)) * 0.1,
        "fxor": lambda rng: rng.normal(2000, 1, 2400),
        "dict": lambda rng: rng.integers(0, 6, 2400),
        "zframe": lambda rng: rng.integers(
            97, 123, (2400, 6), dtype=np.uint8).view("S6").ravel(),
    }

    @pytest.fixture()
    def corrupt(self, tmp_path, monkeypatch):
        """``corrupt(codec)``: a shard whose ``codec`` column has one
        payload byte flipped."""
        rng = np.random.default_rng(11)
        table = Table({c: make_col(rng) for c, make_col in self.CASES.items()})
        path = tmp_path / "part-g001-00003.rcs"
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", "auto")
        save_rcs(table, path)
        assert open_rcs(path).codecs == {c: c for c in self.CASES}
        blob = path.read_bytes()

        def flip(codec):
            meta = open_rcs(path)._cols[codec]
            bad = bytearray(blob)
            bad[meta["offset"] + meta["nbytes"] // 2] ^= 0x01
            path.write_bytes(bytes(bad))
            return path

        return flip

    @pytest.mark.parametrize("codec", list(CASES))
    @pytest.mark.parametrize("entry", ["read", "projected"])
    def test_note_names_file_and_column(self, corrupt, codec, entry,
                                        monkeypatch):
        _wide_pool(monkeypatch, None)
        path = corrupt(codec)
        with pytest.raises(ColumnarFormatError) as err:
            open_rcs(path).read(None if entry == "read" else [codec])
        assert str(err.value).startswith(
            f"column payload CRC mismatch (codec {codec!r}): stored 0x")
        assert err.value.__notes__ == [f"column {codec!r} of {path}"]
