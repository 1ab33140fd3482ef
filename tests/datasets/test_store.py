"""Unit tests for dataset export and inventory."""

import csv

import numpy as np
import pytest

from repro.datasets import dataset_inventory
from repro.parallel import PartitionedDataset
from repro.pipeline import Pipeline, PipelineConfig


@pytest.fixture(scope="module")
def exported(twin, tmp_path_factory):
    root = tmp_path_factory.mktemp("export")
    inv = Pipeline(twin, PipelineConfig(max_workers=1)).export(root)
    return root, inv


class TestExport:
    def test_files_exist(self, exported):
        root, _ = exported
        for name in ("allocations.csv", "node_allocations.csv", "xid_log.csv"):
            assert (root / name).exists()
        assert (root / "job_series" / "manifest.json").exists()
        assert (root / "cluster_power" / "manifest.json").exists()

    def test_allocations_roundtrip(self, twin, exported):
        root, _ = exported
        with open(root / "allocations.csv", newline="") as f:
            back = list(csv.DictReader(f))
        assert len(back) == twin.schedule.allocations.n_rows
        assert np.array_equal(
            np.sort([int(row["allocation_id"]) for row in back]),
            np.sort(twin.schedule.allocations["allocation_id"]),
        )

    def test_job_series_partitioned_by_day(self, twin, exported):
        root, _ = exported
        ds = PartitionedDataset(root / "job_series")
        assert ds.n_partitions >= 1
        assert ds.n_rows == twin.job_series().n_rows

    def test_inventory_counts(self, twin, exported):
        _, inv = exported
        assert inv["telemetry_rows"] == int(
            twin.config.n_nodes * twin.spec.horizon_s
        )
        assert inv["xid_rows"] == twin.failures.n_failures
        assert inv["allocations_rows"] == twin.schedule.allocations.n_rows
        assert inv["telemetry_metric_samples"] > inv["telemetry_rows"] * 100

    def test_inventory_on_disk_sizes(self, exported):
        _, inv = exported
        sizes = inv["on_disk_bytes"]
        assert sizes["node_allocations.csv"] > sizes["allocations.csv"] / 10
        assert sizes["job_series"] > 0

    def test_inventory_without_root(self, twin):
        inv = dataset_inventory(twin)
        assert "on_disk_bytes" not in inv

    def test_table2_ordering(self, twin, exported):
        """Table 2 shape: telemetry >> per-node alloc history > alloc
        history > XID log (rows)."""
        _, inv = exported
        assert inv["telemetry_rows"] > 100 * inv["node_allocation_rows"]
        assert inv["node_allocation_rows"] > inv["allocations_rows"]


class TestWritePartitionedSeries:
    """Sorted fast path (searchsorted slices) == mask fallback, bit for bit."""

    @staticmethod
    def series(n=500, seed=7):
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.uniform(0.0, 3.5 * 86_400.0, n))
        return ts, rng.normal(1e6, 1e4, n)

    def test_sorted_and_shuffled_inputs_write_identical_rows(self, tmp_path):
        from repro.datasets.store import write_partitioned_series
        from repro.frame.table import Table

        ts, v = self.series()
        srt = Table({"timestamp": ts, "sum_inp": v})
        perm = np.random.default_rng(0).permutation(len(ts))
        shuffled = srt.take(perm)

        a = write_partitioned_series(srt, tmp_path, "fast")
        b = write_partitioned_series(shuffled, tmp_path, "slow")
        assert a.n_partitions == b.n_partitions
        for i in range(a.n_partitions):
            ta = a.read(i)
            tb = b.read(i).sort("timestamp")
            assert ta.columns == tb.columns
            for c in ta.columns:
                assert np.array_equal(ta[c], tb[c]), (i, c)

    def test_sorted_path_skips_empty_days(self, tmp_path):
        from repro.datasets.store import write_partitioned_series
        from repro.frame.table import Table

        day = 86_400.0
        ts = np.array([0.5 * day, 2.5 * day])  # day 1 has no samples
        t = Table({"timestamp": ts, "sum_inp": np.ones(2)})
        ds = write_partitioned_series(t, tmp_path, "gappy")
        assert ds.n_partitions == 2
        assert [p.t_begin for p in ds.partitions] == [0.0, 2.0 * day]

    def test_day_slices_match_masks(self, tmp_path):
        from repro.datasets.store import write_partitioned_series
        from repro.frame.table import Table

        ts, v = self.series(n=1000, seed=11)
        t = Table({"timestamp": ts, "sum_inp": v})
        ds = write_partitioned_series(t, tmp_path, "s")
        for p in ds.partitions:
            want = t.filter((ts >= p.t_begin) & (ts < p.t_end))
            got = ds.read(p.index)
            assert np.array_equal(got["timestamp"], want["timestamp"])
            assert np.array_equal(got["sum_inp"], want["sum_inp"])
