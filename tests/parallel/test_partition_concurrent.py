"""Readers racing compaction: no ``FileNotFoundError``, no torn results.

Two guarantees under test:

* a handle holding a **stale manifest** keeps answering
  ``read_time_range`` after ``compact()`` swapped the manifest and
  unlinked the old generation's files — the vanished shard's rows are
  reconstructed from the fresh manifest (same rows, possibly re-sorted);
* concurrent readers hammering ``select_time`` + ``read_time_range``
  while compactions run observe, for every fixed time window, exactly the
  quiescent read's row multiset — never a mix of generations, never a
  partial window.

Row *multiset* (canonical row order) is the comparison, because
compaction re-sorts rows by time: the data must be identical, the
physical order may legally differ between generations.
"""

import threading

import numpy as np

from repro.frame.table import Table, concat
from repro.parallel.partition import PartitionedDataset


def _make_dataset(root, n_appends=10, rows=300, seed=3):
    ds = PartitionedDataset.create(root, "telemetry")
    rng = np.random.default_rng(seed)
    t0 = 0.0
    for k in range(n_appends):
        t = np.sort(rng.uniform(t0, t0 + 60.0, rows))
        if k % 3 == 1:  # a late streaming flush, internally unsorted
            t = t[rng.permutation(rows)]
        ds.append(
            Table({
                "timestamp": t,
                "node": rng.integers(0, 8, rows),
                "power": rng.integers(18_000, 22_000, rows) * 0.1,
            }),
            t0, t0 + 60.0,
        )
        t0 += 60.0
    return ds


def _canonical(table: Table) -> dict[str, np.ndarray]:
    keys = [np.asarray(table[c]) for c in reversed(table.columns)]
    order = np.lexsort(keys)
    return {c: np.asarray(table[c])[order] for c in table.columns}


def _window(ds: PartitionedDataset, lo: float, hi: float) -> Table:
    parts = [
        ds.read_time_range(i, lo, hi)
        for i in ds.select_time(lo, hi)
    ]
    parts = [p for p in parts if p.n_rows]
    if not parts:
        return ds.read_time_range(0, -np.inf, -np.inf)
    return parts[0] if len(parts) == 1 else concat(parts)


def assert_same_rows(a: Table, b: Table, label=""):
    assert a.columns == b.columns, label
    assert a.n_rows == b.n_rows, label
    ca, cb = _canonical(a), _canonical(b)
    for c in a.columns:
        assert np.array_equal(ca[c], cb[c]), f"{label}: column {c}"


class TestStaleHandleSurvivesCompaction:
    def test_read_after_compact_returns_same_rows(self, tmp_path):
        ds = _make_dataset(tmp_path / "ds")
        stale = PartitionedDataset(ds.root)  # opened pre-compaction
        reference = [
            stale.read_time_range(i, 90.0, 400.0)
            for i in range(stale.n_partitions)
        ]
        ds.compact(target_rows=1200)
        # the stale handle's shard files are gone; every per-shard read
        # must still answer with that shard's exact row multiset
        for i, ref in enumerate(reference):
            got = stale.read_time_range(i, 90.0, 400.0)
            assert_same_rows(got, ref, label=f"shard {i}")

    def test_stale_manifest_not_mutated_by_retry(self, tmp_path):
        ds = _make_dataset(tmp_path / "ds")
        stale = PartitionedDataset(ds.root)
        filenames = [m.filename for m in stale.partitions]
        ds.compact(target_rows=1500)
        stale.read_time_range(2, 0.0, 600.0)  # forces the retry path
        assert [m.filename for m in stale.partitions] == filenames

    def test_projection_respected_on_retry(self, tmp_path):
        ds = _make_dataset(tmp_path / "ds")
        stale = PartitionedDataset(ds.root)
        ds.compact(target_rows=1500)
        got = stale.read_time_range(1, 0.0, 600.0, columns=["power"])
        assert got.columns == ["power"]

    def test_out_of_extent_slice_is_empty(self, tmp_path):
        ds = _make_dataset(tmp_path / "ds")
        stale = PartitionedDataset(ds.root)
        ds.compact(target_rows=1500)
        # shard 0 spans [0, 60): a disjoint window must come back empty,
        # even though the fresh shards covering it are much wider
        got = stale.read_time_range(0, 300.0, 360.0)
        assert got.n_rows == 0


class TestReadersDuringCompaction:
    WINDOWS = [(0.0, 120.0), (95.0, 280.0), (240.0, 600.0), (0.0, 600.0)]

    def test_hammered_reads_match_quiescent(self, tmp_path):
        ds = _make_dataset(tmp_path / "ds", n_appends=10)
        reference = {w: _window(ds, *w) for w in self.WINDOWS}
        # the hammered handle: opened before compaction and shared by both
        # reader threads, so once the first compact() lands every sweep
        # resolves vanished shard files through the retry path
        shared = PartitionedDataset(ds.root)

        stop = threading.Event()
        failures: list[str] = []

        def reader(use_fresh_handles: bool):
            # one reader keeps the shared stale handle; the other re-opens
            # the dataset each sweep (sees whichever manifest is current)
            while not stop.is_set():
                handle = (
                    PartitionedDataset(ds.root) if use_fresh_handles
                    else shared
                )
                for w in self.WINDOWS:
                    try:
                        got = _window(handle, *w)
                        assert_same_rows(got, reference[w], label=str(w))
                    except AssertionError as err:
                        failures.append(str(err))
                        stop.set()
                        return
                    except Exception as err:  # noqa: BLE001
                        failures.append(f"{w}: {type(err).__name__}: {err}")
                        stop.set()
                        return

        threads = [
            threading.Thread(target=reader, args=(False,)),
            threading.Thread(target=reader, args=(False,)),
            threading.Thread(target=reader, args=(True,)),
        ]
        for t in threads:
            t.start()
        try:
            # repeated compactions with growing targets: each one rewrites
            # shards, swaps the manifest, and unlinks the old generation
            # under the readers' feet
            for target in (600, 900, 1500, 3000):
                ds.compact(target_rows=target)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not failures, failures[:3]
        # and the quiescent post-compaction read still agrees
        for w in self.WINDOWS:
            assert_same_rows(_window(ds, *w), reference[w], label=str(w))
