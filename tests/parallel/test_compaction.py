"""Shard compaction invariants: rows preserved, order restored, readers safe.

The contract under test (``PartitionedDataset.compact``):

* the row **multiset** is exactly preserved — nothing duplicated, dropped,
  or altered;
* output shards are time-sorted (``lex_sorted`` fast paths restored) and
  their manifest zone maps match freshly recomputed ones;
* a concurrent reader holding a pre-compaction mmap keeps reading valid
  data — old shard files are unlinked only *after* the manifest rename;
* compacting twice is a no-op, and appends after compaction can never
  collide with surviving filenames (generation-stamped names).
"""

import json

import numpy as np
import pytest

from repro.frame.columnar import zone_map
from repro.frame.ops import lex_sorted
from repro.frame.table import Table
from repro.parallel.partition import PartitionedDataset


def _sorted_rows(table: Table) -> dict[str, np.ndarray]:
    """Canonical row order for multiset comparison."""
    keys = [np.asarray(table[c]) for c in reversed(table.columns)]
    order = np.lexsort(keys)
    return {c: np.asarray(table[c])[order] for c in table.columns}


def assert_same_multiset(a: Table, b: Table):
    assert a.columns == b.columns
    assert a.n_rows == b.n_rows
    ra, rb = _sorted_rows(a), _sorted_rows(b)
    for c in a.columns:
        assert np.array_equal(ra[c], rb[c]), c


def interleaved_dataset(root, n_appends=12, rows=400, seed=0):
    """Many small appends; some shards internally unsorted (late flushes)."""
    ds = PartitionedDataset.create(root, "telemetry")
    rng = np.random.default_rng(seed)
    t0 = 0.0
    for k in range(n_appends):
        t = np.sort(rng.uniform(t0, t0 + 60.0, rows))
        if k % 3 == 1:  # streaming flush that arrived out of order
            perm = rng.permutation(rows)
            t = t[perm]
        ds.append(
            Table({
                "timestamp": t,
                "node": rng.integers(0, 8, rows),
                "power": rng.integers(18_000, 22_000, rows) * 0.1,
                "state": np.array(["run", "idle", "drain"])[
                    rng.integers(0, 3, rows)
                ],
            }),
            t0, t0 + 60.0,
        )
        t0 += 60.0
    return ds


class TestCompactionInvariants:
    @pytest.fixture()
    def compacted(self, tmp_path):
        ds = interleaved_dataset(tmp_path / "ds")
        before = ds.to_table()
        stats = ds.compact(target_rows=1600)
        return ds, before, stats

    def test_row_multiset_unchanged(self, compacted):
        ds, before, _ = compacted
        assert_same_multiset(ds.to_table(), before)
        # and through a fresh manifest load
        assert_same_multiset(
            PartitionedDataset(ds.root).to_table(), before
        )

    def test_shards_merged_and_sorted(self, compacted):
        ds, _, stats = compacted
        assert ds.n_partitions < stats["before"]["n_partitions"]
        for p in ds.partitions:
            shard = ds.read(p.index)
            t = np.asarray(shard["timestamp"])
            assert lex_sorted([t]), p.filename
            assert p.zone["timestamp"]["sorted"] is True

    def test_zone_maps_match_recomputed(self, compacted):
        ds, _, _ = compacted
        for p in ds.partitions:
            recomputed = zone_map(ds.read(p.index))
            assert p.zone == recomputed, p.filename

    def test_manifest_indices_and_extents(self, compacted):
        ds, _, _ = compacted
        assert [p.index for p in ds.partitions] == list(
            range(ds.n_partitions)
        )
        for a, b in zip(ds.partitions, ds.partitions[1:]):
            assert a.t_end <= b.t_begin + 1e-9
        # manifest row/byte accounting matches the files
        for p in ds.partitions:
            assert (ds.root / p.filename).stat().st_size == p.n_bytes

    def test_time_pruning_still_works(self, compacted):
        ds, before, _ = compacted
        t = np.asarray(before["timestamp"])
        lo, hi = 95.0, 200.0
        want = np.sort(t[(t >= lo) & (t < hi)])
        got = []
        for i in ds.select_time(lo, hi):
            got.append(
                np.asarray(ds.read_time_range(i, lo, hi)["timestamp"])
            )
        assert np.array_equal(np.concatenate(got), want)


class TestConcurrentReaderSafety:
    def test_held_mmap_survives_compaction(self, tmp_path, monkeypatch):
        # raw shards => reads are true mmap views into the old files
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", "off")
        ds = interleaved_dataset(tmp_path / "ds")
        held = [ds.read(i) for i in range(ds.n_partitions)]
        held_copies = [
            {c: np.asarray(t[c]).copy() for c in t.columns} for t in held
        ]
        monkeypatch.delenv("REPRO_RCS_COMPRESSION")
        stats = ds.compact(target_rows=1600)
        assert stats["rewritten"] > 0
        # old files are gone from the directory...
        live = {p.filename for p in ds.partitions}
        on_disk = {p.name for p in ds.root.iterdir() if p.suffix == ".rcs"}
        assert on_disk == live
        # ...but the held mappings still read the exact old bytes
        for t, want in zip(held, held_copies):
            for c in t.columns:
                assert np.array_equal(np.asarray(t[c]), want[c])

    def test_manifest_swap_is_atomic(self, tmp_path):
        ds = interleaved_dataset(tmp_path / "ds", n_appends=6)
        ds.compact(target_rows=1200)
        # no temp manifest left behind, and the manifest parses
        leftovers = [p for p in ds.root.iterdir() if ".tmp" in p.name]
        assert leftovers == []
        raw = json.loads((ds.root / "manifest.json").read_text())
        assert raw["generation"] == 1
        assert len(raw["partitions"]) == ds.n_partitions


class TestIdempotenceAndAppends:
    def test_second_compact_is_noop(self, tmp_path):
        ds = interleaved_dataset(tmp_path / "ds")
        ds.compact(target_rows=1600)
        files = sorted(p.name for p in ds.root.iterdir())
        stats = ds.compact(target_rows=1600)
        assert stats["rewritten"] == 0
        assert stats["generation"] == 1  # no pointless generation bump
        assert sorted(p.name for p in ds.root.iterdir()) == files

    def test_append_after_compact_no_collision(self, tmp_path):
        ds = interleaved_dataset(tmp_path / "ds", n_appends=8)
        ds.compact(target_rows=1000)
        n = ds.n_partitions
        t0 = ds.partitions[-1].t_end
        before = ds.to_table()
        ds.append(
            Table({
                "timestamp": np.arange(t0, t0 + 50.0),
                "node": np.zeros(50, dtype=np.int64),
                "power": np.full(50, 2000.0),
                "state": np.full(50, "run"),
            }),
            t0, t0 + 60.0,
        )
        assert ds.n_partitions == n + 1
        names = [p.filename for p in ds.partitions]
        assert len(set(names)) == len(names)
        assert PartitionedDataset(ds.root).to_table().n_rows == (
            before.n_rows + 50
        )

    def test_lone_unsorted_shard_is_rewritten(self, tmp_path):
        ds = PartitionedDataset.create(tmp_path / "ds", "d")
        rng = np.random.default_rng(1)
        t = rng.uniform(0.0, 60.0, 500)  # unsorted single shard
        ds.append(Table({"timestamp": t, "v": rng.random(500)}), 0.0, 60.0)
        assert ds.partitions[0].zone["timestamp"]["sorted"] is False
        stats = ds.compact()
        assert stats["rewritten"] == 1
        assert ds.partitions[0].zone["timestamp"]["sorted"] is True

    def test_compact_empty_and_single_sorted(self, tmp_path):
        ds = PartitionedDataset.create(tmp_path / "ds", "d")
        assert ds.compact()["rewritten"] == 0
        ds.append(
            Table({"timestamp": np.arange(100.0), "v": np.arange(100.0)}),
            0.0, 100.0,
        )
        assert ds.compact()["rewritten"] == 0

    def test_compression_mode_respected_on_rewrite(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", "off")
        ds = interleaved_dataset(tmp_path / "ds", n_appends=4)
        assert all(p.enc is None for p in ds.partitions)
        monkeypatch.delenv("REPRO_RCS_COMPRESSION")
        ds.compact(target_rows=1000)
        # rewritten shards picked up codecs; summary sees them
        summary = ds.encoding_summary()
        assert sum(n for c, n in summary.items() if c != "raw") > 0
