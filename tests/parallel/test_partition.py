"""Unit tests for PartitionedDataset."""

import json

import numpy as np
import pytest

from repro.frame import ColumnarFormatError, Table
from repro.parallel import PartitionedDataset


def shard(lo, n=10):
    return Table(
        {
            "timestamp": np.arange(lo, lo + n, dtype=np.float64),
            "v": np.arange(n, dtype=np.float64),
        }
    )


@pytest.fixture()
def ds(tmp_path):
    d = PartitionedDataset.create(tmp_path / "ds", "test")
    d.append(shard(0.0), 0.0, 10.0)
    d.append(shard(10.0), 10.0, 20.0)
    d.append(shard(20.0), 20.0, 30.0)
    return d


class TestCreation:
    def test_create_and_reopen(self, tmp_path, ds):
        again = PartitionedDataset(ds.root)
        assert again.n_partitions == 3
        assert again.name == "test"
        assert again.n_rows == 30

    def test_create_twice_fails(self, tmp_path):
        PartitionedDataset.create(tmp_path / "x", "a")
        with pytest.raises(FileExistsError):
            PartitionedDataset.create(tmp_path / "x", "b")

    def test_open_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PartitionedDataset(tmp_path / "nope")

    def test_append_overlap_rejected(self, ds):
        with pytest.raises(ValueError, match="overlaps"):
            ds.append(shard(25.0), 25.0, 35.0)

    def test_append_zero_extent_rejected(self, ds):
        with pytest.raises(ValueError, match="positive"):
            ds.append(shard(30.0), 40.0, 40.0)

    def test_gaps_allowed(self, ds):
        ds.append(shard(100.0), 100.0, 110.0)
        assert ds.n_partitions == 4


class TestAccess:
    def test_read_roundtrip(self, ds):
        assert ds.read(1) == shard(10.0)

    def test_iteration(self, ds):
        assert sum(t.n_rows for t in ds) == 30

    def test_time_range(self, ds):
        assert [(p.t_begin, p.t_end) for p in ds.partitions] == [
            (0.0, 10.0), (10.0, 20.0), (20.0, 30.0)]

    def test_select_time(self, ds):
        assert ds.select_time(5.0, 15.0) == [0, 1]
        assert ds.select_time(10.0, 20.0) == [1]
        assert ds.select_time(100.0, 200.0) == []

    def test_to_table(self, ds):
        t = ds.to_table()
        assert t.n_rows == 30
        assert t["timestamp"][0] == 0.0

    def test_to_table_empty_raises(self, tmp_path):
        d = PartitionedDataset.create(tmp_path / "e", "empty")
        with pytest.raises(ValueError):
            d.to_table()

    def test_n_bytes(self, ds):
        assert ds.n_bytes > 0


def mixed_shard(lo, n=10):
    return Table(
        {
            "timestamp": np.arange(lo, lo + n, dtype=np.float64),
            "node": np.arange(n, dtype=np.int64) % 4,
            "v": np.arange(n, dtype=np.float64),
            "name": np.array([f"n{i % 3}" for i in range(n)]),
        }
    )


#: the two byte layouts a shard can have on disk: per-column codecs
#: (``REPRO_RCS_COMPRESSION=auto``) and all-raw columns (``off``)
LAYOUTS = [pytest.param("auto", id="rcs"), pytest.param("off", id="rcs-raw")]


@pytest.fixture()
def layout_ds(tmp_path, monkeypatch):
    """``make(mode)``: an empty dataset; appends use that layout until the
    next ``make``."""
    def make(mode):
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", mode)
        return PartitionedDataset.create(tmp_path / mode, "t")

    return make


class TestFormats:
    @pytest.mark.parametrize("mode", LAYOUTS)
    def test_roundtrip(self, layout_ds, mode):
        d = layout_ds(mode)
        d.append(mixed_shard(0.0), 0.0, 10.0)
        assert d.partitions[0].format == "rcs"
        assert d.partitions[0].filename.endswith(".rcs")
        assert d.read(0) == mixed_shard(0.0)

    def test_formats_bit_identical(self, layout_ds):
        """Compressed and raw layouts differ on disk and read back with the
        same values *and* dtypes as the table that was written."""
        t = mixed_shard(0.0, n=600)
        a = layout_ds("auto")
        a.append(t, 0.0, 600.0)
        b = layout_ds("off")
        b.append(t, 0.0, 600.0)
        assert a.partitions[0].enc and b.partitions[0].enc is None
        assert a.n_bytes < b.n_bytes
        for got in (a.read(0), b.read(0)):
            assert got.columns == t.columns
            for c in t.columns:
                assert got[c].dtype == t[c].dtype
                assert np.array_equal(got[c], t[c])

    def test_reopen_keeps_format_and_zone(self, tmp_path):
        d = PartitionedDataset.create(tmp_path / "z", "t")
        d.append(mixed_shard(0.0), 0.0, 10.0)
        again = PartitionedDataset(d.root)
        assert again.partitions[0].format == "rcs"
        assert again.partitions[0].zone["timestamp"]["sorted"] is True
        assert again.partitions[0].zone["v"]["max"] == 9.0

    @pytest.mark.parametrize("drop, put", [
        ((), {"format": "npz"}),  # the retired fallback format
        (("format",), {}),        # pre-columnar manifest: no format field
        (("zone",), {}),          # no zone map to prune with
    ], ids=["npz", "no-format", "no-zone"])
    def test_manifest_of_other_shards_rejected(self, tmp_path, drop, put):
        d = PartitionedDataset.create(tmp_path / "old", "t")
        d.append(mixed_shard(0.0), 0.0, 10.0)
        manifest = d.root / "manifest.json"
        raw = json.loads(manifest.read_text())
        entry = raw["partitions"][0]
        for key in drop:
            del entry[key]
        entry.update(put)
        manifest.write_text(json.dumps(raw))
        with pytest.raises(ColumnarFormatError) as err:
            PartitionedDataset(d.root)
        assert str(manifest) in str(err.value)
        assert entry["filename"] in str(err.value)


class TestProjectionPushdown:
    @pytest.mark.parametrize("mode", LAYOUTS)
    def test_read_projected(self, layout_ds, mode):
        d = layout_ds(mode)
        d.append(mixed_shard(0.0), 0.0, 10.0)
        got = d.read(0, columns=["v", "timestamp"])
        assert got.columns == ["v", "timestamp"]
        full = d.read(0)
        for c in got.columns:
            assert np.array_equal(got[c], full[c])

    def test_column_names_from_zone(self, ds):
        assert ds.column_names == ["timestamp", "v"]

    @pytest.mark.parametrize("mode", LAYOUTS)
    def test_to_table_projected(self, layout_ds, mode):
        d = layout_ds(mode)
        d.append(mixed_shard(0.0), 0.0, 10.0)
        d.append(mixed_shard(10.0), 10.0, 20.0)
        got = d.to_table(columns=["node"])
        assert got.columns == ["node"]
        assert got.n_rows == 20


class TestPredicatePushdown:
    @pytest.mark.parametrize("mode", LAYOUTS)
    def test_read_time_range_sorted(self, layout_ds, mode):
        d = layout_ds(mode)
        d.append(mixed_shard(0.0), 0.0, 10.0)
        got = d.read_time_range(0, 3.0, 7.0, columns=["v"])
        assert got.columns == ["v"]
        assert np.array_equal(got["v"], [3.0, 4.0, 5.0, 6.0])

    @pytest.mark.parametrize("mode", LAYOUTS)
    def test_read_time_range_unsorted_mask(self, layout_ds, mode):
        rng = np.random.default_rng(0)
        ts = rng.permutation(10).astype(np.float64)
        t = Table({"timestamp": ts, "v": ts * 3})
        d = layout_ds(mode)
        d.append(t, 0.0, 10.0)
        assert d.partitions[0].zone["timestamp"]["sorted"] is False
        got = d.read_time_range(0, 3.0, 7.0)
        keep = (ts >= 3.0) & (ts < 7.0)
        assert np.array_equal(got["v"], t.filter(keep)["v"])

    def test_select_time_zone_tighter_than_extent(self, tmp_path):
        # shard declared for [0, 100) but data only spans [0, 10): a probe
        # of [50, 60) must prune it via the zone map
        d = PartitionedDataset.create(tmp_path / "t", "t")
        d.append(mixed_shard(0.0), 0.0, 100.0)
        assert d.select_time(50.0, 60.0) == []
        assert d.select_time(5.0, 60.0) == [0]

    def test_select_time_skips_empty_shard(self, tmp_path):
        d = PartitionedDataset.create(tmp_path / "t", "t")
        d.append(mixed_shard(0.0)[:0], 0.0, 10.0)
        d.append(mixed_shard(10.0), 10.0, 20.0)
        assert d.select_time(0.0, 30.0) == [1]

    def test_select_where(self, tmp_path):
        d = PartitionedDataset.create(tmp_path / "t", "t")
        d.append(mixed_shard(0.0), 0.0, 10.0)    # v in [0, 9]
        d.append(mixed_shard(10.0), 10.0, 20.0)  # v in [0, 9]
        assert d.select_where("v", 0.0, 5.0) == [0, 1]
        assert d.select_where("v", 50.0, 60.0) == []
        assert d.select_where("node", 3, 3) == [0, 1]

    def test_scan_equals_filtered_full_read(self, tmp_path):
        # a pruned scan: zone maps pick the shards, one merged read slices
        d = PartitionedDataset.create(tmp_path / "t", "t")
        for lo in (0.0, 10.0, 20.0):
            d.append(mixed_shard(lo), lo, lo + 10.0)
        got = d.read_time_range_merged(d.select_time(5.0, 25.0), 5.0, 25.0,
                                       ["timestamp", "v"])
        full = d.to_table()
        t = full["timestamp"]
        want = full.filter((t >= 5.0) & (t < 25.0)).select(["timestamp", "v"])
        assert got.columns == want.columns
        for c in want.columns:
            assert np.array_equal(got[c], want[c])

class TestStitchedToTable:
    """The single-allocation ``to_table`` path and its fallbacks."""

    @staticmethod
    def _mixed_shard(lo, n=600, seed=0):
        rng = np.random.default_rng(seed)
        return Table({
            "timestamp": np.arange(lo, lo + n, dtype=np.float64),
            "node": np.arange(n, dtype=np.int64) % 8,
            "power": np.cumsum(rng.integers(-3, 4, n)) * 0.1,
            "noise": rng.normal(0.0, 1e9, n),
        })

    def test_matches_read_concat(self, tmp_path):
        from repro.frame.table import concat

        d = PartitionedDataset.create(tmp_path / "s", "stitch")
        for i in range(4):
            d.append(self._mixed_shard(i * 600.0, seed=i),
                     i * 600.0, (i + 1) * 600.0)
        stitched = d.to_table()
        assert stitched is not None  # the rcs fast path applies
        manual = concat([d.read(i) for i in range(d.n_partitions)])
        assert stitched.columns == manual.columns
        for c in stitched.columns:
            a, b = np.asarray(stitched[c]), np.asarray(manual[c])
            assert a.dtype == b.dtype, c
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), c

    def test_projection(self, tmp_path):
        d = PartitionedDataset.create(tmp_path / "p", "proj")
        for i in range(3):
            d.append(self._mixed_shard(i * 600.0, seed=i),
                     i * 600.0, (i + 1) * 600.0)
        t = d.to_table(columns=["timestamp", "power"])
        assert t.columns == ["timestamp", "power"]
        assert t.n_rows == 1800

    def test_missing_column_still_raises(self, tmp_path):
        d = PartitionedDataset.create(tmp_path / "m", "miss")
        d.append(self._mixed_shard(0.0), 0.0, 600.0)
        with pytest.raises(KeyError, match="ghost"):
            d.to_table(columns=["ghost"])

    def test_schema_drift_falls_back_to_promotion(self, tmp_path):
        # same column name, different dtypes across shards: the stitch
        # bails out and concat's numpy promotion applies, as before
        d = PartitionedDataset.create(tmp_path / "d", "drift")
        d.append(Table({"timestamp": np.arange(5.0),
                        "v": np.arange(5, dtype=np.int32)}), 0.0, 5.0)
        d.append(Table({"timestamp": np.arange(5.0, 10.0),
                        "v": np.arange(5, dtype=np.int64)}), 5.0, 10.0)
        assert d._stitch(range(d.n_partitions), None) is None
        t = d.to_table()
        assert t.n_rows == 10
        assert t["v"].dtype == np.int64

    def test_stitched_columns_are_writable_and_owned(self, tmp_path):
        # results must not alias shard mmaps (delete-safe, mutation-safe)
        d = PartitionedDataset.create(tmp_path / "w", "own")
        d.append(self._mixed_shard(0.0), 0.0, 600.0)
        t = d.to_table()
        for c in t.columns:
            arr = np.asarray(t[c])
            assert arr.flags.writeable, c
            assert arr.base is None, c


class TestMergedTimeRangeRead:
    def _concat_reference(self, ds, idx, lo, hi, columns=None):
        from repro.frame.table import concat

        parts = [ds.read_time_range(i, lo, hi, columns) for i in idx]
        return parts[0] if len(parts) == 1 else concat(parts)

    def test_matches_per_shard_concat(self, ds):
        idx = ds.select_time(3.0, 27.0)
        merged = ds.read_time_range_merged(idx, 3.0, 27.0)
        assert merged == self._concat_reference(ds, idx, 3.0, 27.0)

    def test_projection_and_open_range(self, ds):
        idx = ds.select_time(-np.inf, np.inf)
        merged = ds.read_time_range_merged(idx, -np.inf, np.inf, ["v"])
        assert merged.columns == ["v"]
        assert merged == self._concat_reference(
            ds, idx, -np.inf, np.inf, ["v"]
        )

    def test_empty_selection_has_schema(self, ds):
        merged = ds.read_time_range_merged([], 5.0, 5.0)
        assert merged.n_rows == 0
        assert merged.columns == ["timestamp", "v"]

    def test_compressed_shards_match(self, tmp_path):
        rng = np.random.default_rng(5)
        d = PartitionedDataset.create(tmp_path / "c", "c")
        for k in range(4):
            n = 200
            t = Table({
                "timestamp": np.arange(k * n, (k + 1) * n, dtype=np.float64),
                "node": np.arange(n, dtype=np.int64) % 8,
                "v": rng.normal(size=n),
            })
            d.append(t, float(k * n), float((k + 1) * n))
        idx = d.select_time(150.0, 650.0)
        merged = d.read_time_range_merged(idx, 150.0, 650.0, ["node", "v"])
        assert merged == self._concat_reference(
            d, idx, 150.0, 650.0, ["node", "v"]
        )

    def test_unsorted_time_falls_back_to_concat(self, tmp_path):
        # searchsorted slicing needs a sorted time column: a shard without
        # one sends the whole read down the per-shard mask path
        d = PartitionedDataset.create(tmp_path / "z", "z")
        d.append(shard(0.0), 0.0, 10.0)
        d.append(shard(10.0).take(np.arange(10)[::-1]), 10.0, 20.0)
        idx = d.select_time(2.0, 18.0)
        assert d._stitch(idx, None, (2.0, 18.0)) is None
        merged = d.read_time_range_merged(idx, 2.0, 18.0)
        assert merged == self._concat_reference(d, idx, 2.0, 18.0)
        assert np.array_equal(
            np.sort(merged["timestamp"]), np.arange(2.0, 18.0)
        )
