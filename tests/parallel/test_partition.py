"""Unit tests for PartitionedDataset."""

import json

import numpy as np
import pytest

from repro.frame import ColumnarFormatError, Table, concat
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
        got = d.read_time_range(0, -np.inf, np.inf,
                                columns=["v", "timestamp"])
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
        got = concat([d.read_time_range(i, -np.inf, np.inf, columns=["node"])
                      for i in range(d.n_partitions)])
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
        # a pruned scan: zone maps pick the shards, each is sliced
        d = PartitionedDataset.create(tmp_path / "t", "t")
        for lo in (0.0, 10.0, 20.0):
            d.append(mixed_shard(lo), lo, lo + 10.0)
        got = concat([d.read_time_range(i, 5.0, 25.0, ["timestamp", "v"])
                      for i in d.select_time(5.0, 25.0)])
        full = d.to_table()
        t = full["timestamp"]
        want = full.filter((t >= 5.0) & (t < 25.0)).select(["timestamp", "v"])
        assert got.columns == want.columns
        for c in want.columns:
            assert np.array_equal(got[c], want[c])

class TestStitchedToTable:
    """``to_table``: every shard read, then one concat into owned arrays."""

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
        d = PartitionedDataset.create(tmp_path / "s", "stitch")
        for i in range(4):
            d.append(self._mixed_shard(i * 600.0, seed=i),
                     i * 600.0, (i + 1) * 600.0)
        stitched = d.to_table()
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
        t = concat([d.read_time_range(i, -np.inf, np.inf,
                                      columns=["timestamp", "power"])
                    for i in range(d.n_partitions)])
        assert t.columns == ["timestamp", "power"]
        assert t.n_rows == 1800

    def test_missing_column_still_raises(self, tmp_path):
        d = PartitionedDataset.create(tmp_path / "m", "miss")
        d.append(self._mixed_shard(0.0), 0.0, 600.0)
        with pytest.raises(KeyError, match="ghost"):
            d.read_time_range(0, -np.inf, np.inf, columns=["ghost"])

    def test_schema_drift_falls_back_to_promotion(self, tmp_path):
        # same column name, different dtypes across shards: concat's
        # numpy promotion applies
        d = PartitionedDataset.create(tmp_path / "d", "drift")
        d.append(Table({"timestamp": np.arange(5.0),
                        "v": np.arange(5, dtype=np.int32)}), 0.0, 5.0)
        d.append(Table({"timestamp": np.arange(5.0, 10.0),
                        "v": np.arange(5, dtype=np.int64)}), 5.0, 10.0)
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
