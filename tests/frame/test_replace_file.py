"""The one commit protocol: every whole-file write goes through
``repro.frame.io.replace_file`` (temp file named per process and thread,
fsync, rename, directory fsync)."""

import os
import stat
import threading

import numpy as np
import pytest

from repro.frame.io import replace_file, write_csv
from repro.frame.table import Table
from repro.parallel.partition import PartitionedDataset
from repro.pipeline import ArtifactCache
from repro.plan import cache_key


def _series(n=500, scale=1.0):
    return Table({
        "timestamp": np.arange(n, dtype=np.float64),
        "node": np.arange(n, dtype=np.int64) % 8,
        "power": np.linspace(0.0, scale, n),
    })


def _leftovers(root):
    return sorted(p.name for p in root.rglob("*.tmp"))


def _race(n_rounds, *jobs):
    """Run each job ``n_rounds`` times on its own thread, every round
    released together; returns the exceptions raised."""
    barrier = threading.Barrier(len(jobs))
    errors: list[Exception] = []

    def loop(job):
        try:
            for _ in range(n_rounds):
                barrier.wait()
                job()
        except Exception as err:  # noqa: BLE001 - returned to the test
            errors.append(err)
            barrier.abort()

    threads = [threading.Thread(target=loop, args=(job,)) for job in jobs]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
        assert not th.is_alive()
    return errors


def test_two_threads_put_one_cache_key(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache_key("race")
    tables = [_series(20_000, scale) for scale in (1.0, 2.0)]
    errors = _race(50, *(lambda t=t: cache.put(key, t) for t in tables))
    assert errors == []
    got = cache.get(key)
    assert got is not None
    assert any(
        got.columns == t.columns
        and all(got[c].dtype == t[c].dtype
                and got[c].tobytes() == t[c].tobytes() for c in t.columns)
        for t in tables
    )
    assert _leftovers(tmp_path) == []


def test_two_handles_flush_one_manifest(tmp_path):
    PartitionedDataset.create(tmp_path / "ds", "ds").append(
        _series(), 0.0, 500.0)
    handles = [PartitionedDataset(tmp_path / "ds") for _ in range(2)]
    assert _race(100, *(h._flush for h in handles)) == []
    assert PartitionedDataset(tmp_path / "ds").n_rows == 500
    assert _leftovers(tmp_path) == []


def test_append_fsyncs_shard_then_manifest_then_directory(tmp_path,
                                                          monkeypatch):
    ds = PartitionedDataset.create(tmp_path / "ds", "ds")
    synced: list[int] = []
    real = os.fsync

    def counting(fd):
        synced.append(os.fstat(fd).st_ino)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    meta = ds.append(_series(), 0.0, 500.0)
    shard, manifest, directory = (
        p.stat().st_ino for p in (ds.root / meta.filename,
                                  ds.root / "manifest.json", ds.root))
    assert shard in synced and manifest in synced
    # the directory is synced after each rename, the manifest's last
    assert synced.index(shard) < synced.index(manifest)
    assert synced[-1] == directory
    assert synced.count(directory) == 2


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_failed_write_leaves_the_old_file(tmp_path, exc):
    path = tmp_path / "f.bin"
    path.write_bytes(b"old bytes")

    def bad(f):
        f.write(b"half of the new")
        raise exc("writer fell over")

    with pytest.raises(exc, match="writer fell over"):
        replace_file(path, bad)
    assert path.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin"]


def test_returns_bytes_on_disk_and_makes_parents(tmp_path):
    path = tmp_path / "a" / "b" / "f.bin"
    assert replace_file(path, lambda f: f.write(b"12345")) == 5
    assert path.read_bytes() == b"12345"


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    try:
        yield
    finally:
        os.umask(old)


def test_files_get_plain_open_mode(tmp_path, umask_027):
    with open(tmp_path / "plain", "w"):
        pass
    plain = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert plain == 0o640
    ds = PartitionedDataset.create(tmp_path / "ds", "ds")
    meta = ds.append(_series(), 0.0, 500.0)
    write_csv(_series(10), tmp_path / "t.csv")
    for path in (ds.root / meta.filename, ds.root / "manifest.json",
                 tmp_path / "t.csv"):
        assert stat.S_IMODE(path.stat().st_mode) == plain, path.name
