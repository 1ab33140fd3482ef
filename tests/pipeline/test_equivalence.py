"""Chunked pipeline output must be bit-identical to the single-pass path.

Every assertion here is ``np.array_equal`` (or byte equality for exported
files) — not ``allclose``.  The tentpole's contract is exact equality across
chunk sizes, executor backends, and cache cold/warm runs.
"""

import hashlib
import os
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.pipeline import Pipeline, PipelineConfig

DAY = 86_400.0


def assert_tables_equal(got, want):
    assert got.columns == want.columns
    assert got.n_rows == want.n_rows
    for c in want.columns:
        assert got[c].dtype == want[c].dtype, c
        assert np.array_equal(got[c], want[c]), c


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def telemetry(twin_small):
    """One hour of sampled 1 Hz telemetry (coarsen/aggregate input)."""
    arr = twin_small.builder.build(0.0, 3600.0, 1.0)
    return twin_small.sampler().sample(arr)


@pytest.fixture(scope="module")
def coarse(telemetry):
    return coarsen_telemetry(telemetry, ["input_power"], width=10.0)


class TestClusterPowerEquivalence:
    @pytest.mark.parametrize(
        "chunk_s", [0.1 * DAY, 0.5 * DAY, DAY, 2 * DAY, 10 * DAY]
    )
    def test_chunk_sizes(self, twin_small, single_pass_power, chunk_s):
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=chunk_s,
                                                   backend="serial"))
        times, power = pipe.cluster_power()
        ref_t, ref_p = single_pass_power
        assert np.array_equal(times, ref_t)
        assert np.array_equal(power, ref_p)

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_backends(self, twin_small, single_pass_power, backend):
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.25 * DAY, backend=backend, max_workers=2,
        ))
        times, power = pipe.cluster_power()
        assert np.array_equal(times, single_pass_power[0])
        assert np.array_equal(power, single_pass_power[1])

    def test_seeded_random_chunk_sizes(self, twin_small, single_pass_power):
        # property-style sweep: arbitrary chunk widths never change a bit
        rng = np.random.default_rng(2024)
        for chunk_s in rng.uniform(600.0, 2.5 * DAY, size=6):
            pipe = Pipeline(twin_small, PipelineConfig(
                chunk_seconds=float(chunk_s), backend="serial",
            ))
            _, power = pipe.cluster_power()
            assert np.array_equal(power, single_pass_power[1]), chunk_s


class TestJobSeriesEquivalence:
    @pytest.mark.parametrize("chunk_s", [0.1 * DAY, 0.5 * DAY, DAY, 3 * DAY])
    def test_chunk_sizes(self, twin_small, single_pass_series, chunk_s):
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=chunk_s,
                                                   backend="serial"))
        assert_tables_equal(pipe.job_series(), single_pass_series)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_backends(self, twin_small, single_pass_series, backend):
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.5 * DAY, backend=backend, max_workers=2,
        ))
        assert_tables_equal(pipe.job_series(), single_pass_series)

    def test_components(self, twin_small):
        ref = twin_small.job_series(components=True)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=0.4 * DAY,
                                                   backend="serial"))
        assert_tables_equal(pipe.job_series(components=True), ref)


class TestCoarsenAggregateEquivalence:
    @pytest.mark.parametrize("chunk_s", [300.0, 1000.0, 3600.0, DAY])
    def test_coarsen_chunk_sizes(self, twin_small, telemetry, chunk_s):
        ref = coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=chunk_s,
                                                   backend="serial"))
        got = pipe.coarsen(telemetry, ["input_power"], width=10.0)
        assert_tables_equal(got, ref)

    def test_coarsen_via_keyword(self, twin_small, telemetry):
        # public entry point routes through the pipeline when one is given
        ref = coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=900.0,
                                                   backend="threads",
                                                   max_workers=2))
        got = coarsen_telemetry(telemetry, ["input_power"], width=10.0,
                                pipeline=pipe)
        assert_tables_equal(got, ref)
        assert pipe.stats.stage("coarsen").calls > 1

    @pytest.mark.parametrize("chunk_s", [600.0, 1800.0, DAY])
    def test_cluster_series_chunk_sizes(self, twin_small, coarse, chunk_s):
        ref = cluster_power_series(coarse)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=chunk_s,
                                                   backend="serial"))
        assert_tables_equal(pipe.cluster_series(coarse), ref)

    def test_cluster_series_via_keyword(self, twin_small, coarse):
        ref = cluster_power_series(coarse)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=900.0,
                                                   backend="serial"))
        got = cluster_power_series(coarse, pipeline=pipe)
        assert_tables_equal(got, ref)

    @pytest.mark.parametrize("presorted", [None, True, False])
    def test_coarsen_presorted_routes(self, twin_small, telemetry, presorted):
        # every kernel route through the chunked path stays bit-identical
        ref = coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=900.0,
                                                   backend="serial"))
        sorted_tel = telemetry.sort(["node", "timestamp"])
        got = pipe.coarsen(sorted_tel, ["input_power"], width=10.0,
                           presorted=presorted)
        assert_tables_equal(got, ref)


class TestFusedEquivalence:
    """telemetry_series: fused one-task-per-shard == staged == single-pass."""

    @pytest.fixture(scope="class")
    def single_pass(self, telemetry):
        return cluster_power_series(
            coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        )

    @pytest.mark.parametrize("chunk_s", [300.0, 1000.0, 3600.0, DAY])
    def test_fused_chunk_sizes(self, twin_small, telemetry, single_pass,
                               chunk_s):
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=chunk_s, backend="serial"))
        got = pipe.telemetry_series(telemetry, ["input_power"])
        assert_tables_equal(got, single_pass)

    def test_fused_matches_unfused(self, twin_small, telemetry, single_pass):
        # unfused: the two chunked stages called one after the other
        cfg = PipelineConfig(chunk_seconds=900.0, backend="serial")
        fused = Pipeline(twin_small, cfg)
        staged = Pipeline(twin_small, cfg)
        a = fused.telemetry_series(telemetry, ["input_power"])
        b = staged.cluster_series(
            staged.coarsen(telemetry, ["input_power"], width=10.0)
        )
        assert_tables_equal(a, b)
        assert_tables_equal(a, single_pass)
        # the fused run must never have materialized the staged stage names
        assert "coarsen" not in fused.stats.stages
        assert fused.stats.stage("fused").calls > 1
        assert fused.stats.stage("fused/coarsen").wall_s >= 0.0
        assert staged.stats.stage("coarsen").calls > 1

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_fused_backends(self, twin_small, telemetry, single_pass, backend):
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=900.0, backend=backend, max_workers=2))
        got = pipe.telemetry_series(telemetry, ["input_power"])
        assert_tables_equal(got, single_pass)

    def test_fused_dataset_source(self, twin_small, telemetry, single_pass,
                                  tmp_path):
        from repro.parallel.partition import PartitionedDataset

        ds = PartitionedDataset.create(tmp_path / "tel", "telemetry")
        t = telemetry["timestamp"]
        # last shard catches the 0-5 s collector-delay spillover past 3600
        for lo in np.arange(0.0, float(t.max()) + 1.0, 900.0):
            sub = telemetry.filter((t >= lo) & (t < lo + 900.0))
            ds.append(sub, lo, lo + 900.0)
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=900.0, backend="serial"))
        got = pipe.telemetry_series(ds, ["input_power"])
        assert_tables_equal(got, single_pass)
        assert pipe.stats.stage("fused/read").calls == ds.n_partitions

    def test_fused_cache_cold_then_warm(self, twin_small, telemetry,
                                        single_pass, tmp_path):
        cfg = PipelineConfig(chunk_seconds=900.0, backend="serial",
                             cache_dir=tmp_path / "cache")
        cold = Pipeline(twin_small, cfg)
        assert_tables_equal(
            cold.telemetry_series(telemetry, ["input_power"],
                                  cache_token="tel-hour"),
            single_pass,
        )
        assert cold.stats.stage("fused").cache_misses > 0
        warm = Pipeline(twin_small, cfg)
        assert_tables_equal(
            warm.telemetry_series(telemetry, ["input_power"],
                                  cache_token="tel-hour"),
            single_pass,
        )
        assert warm.stats.stage("fused").cache_misses == 0
        assert (warm.stats.stage("fused").cache_hits
                == cold.stats.stage("fused").cache_misses)


class TestCacheEquivalence:
    def test_cold_then_warm_identical(self, twin_small, single_pass_series,
                                      single_pass_power, tmp_path):
        cfg = PipelineConfig(chunk_seconds=0.5 * DAY, backend="serial",
                             cache_dir=tmp_path / "cache")
        cold = Pipeline(twin_small, cfg)
        assert_tables_equal(cold.job_series(), single_pass_series)
        _, cold_p = cold.cluster_power()
        assert np.array_equal(cold_p, single_pass_power[1])
        assert cold.stats.total_cache_hits == 0
        assert cold.stats.total_cache_misses > 0

        warm = Pipeline(twin_small, cfg)
        assert_tables_equal(warm.job_series(), single_pass_series)
        _, warm_p = warm.cluster_power()
        assert np.array_equal(warm_p, single_pass_power[1])
        assert warm.stats.total_cache_misses == 0
        assert warm.stats.total_cache_hits == cold.stats.total_cache_misses

    def test_warm_across_chunk_size_change_is_a_miss(self, twin_small,
                                                     single_pass_power,
                                                     tmp_path):
        # the chunk layout is part of the address: changing it re-computes
        # (correctly) rather than stitching stale shards
        a = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.5 * DAY, backend="serial",
            cache_dir=tmp_path / "cache"))
        a.cluster_power()
        b = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.3 * DAY, backend="serial",
            cache_dir=tmp_path / "cache"))
        _, p = b.cluster_power()
        assert np.array_equal(p, single_pass_power[1])
        assert b.stats.total_cache_misses > 0


class TestExportEquivalence:
    def test_export_matches_classic_path(self, twin_small, tmp_path):
        from repro.datasets.store import export_datasets

        ref_root = tmp_path / "ref"
        export_datasets(twin_small, ref_root)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=0.5 * DAY,
                                                   backend="serial"))
        got_root = tmp_path / "got"
        pipe.export(got_root)
        ref = _tree_digest(ref_root)
        got = _tree_digest(got_root)
        assert got == ref


class TestPushdownEquivalence:
    """Projection + predicate pushdown never changes a bit.

    compressed == raw shards, projected == full, pruned == filtered —
    across backends, cache cold/warm.
    """

    WIDTH = 10.0
    SHARD_S = 900.0

    #: store name -> the ``REPRO_RCS_COMPRESSION`` mode it is written under
    LAYOUTS = {"rcs": "auto", "rcs-raw": "off"}

    @staticmethod
    def build_dataset(telemetry, root, mode):
        from repro.parallel.partition import PartitionedDataset

        ds = PartitionedDataset.create(root, "telemetry")
        t = telemetry["timestamp"]
        with patch.dict(os.environ, {"REPRO_RCS_COMPRESSION": mode}):
            for lo in np.arange(0.0, float(t.max()) + 1.0, 900.0):
                sub = telemetry.filter((t >= lo) & (t < lo + 900.0))
                ds.append(sub, lo, lo + 900.0)
        return ds

    @pytest.fixture(scope="class")
    def datasets(self, telemetry, tmp_path_factory):
        root = tmp_path_factory.mktemp("push")
        return {
            fmt: self.build_dataset(telemetry, root / fmt, mode)
            for fmt, mode in self.LAYOUTS.items()
        }

    @pytest.fixture(scope="class")
    def single_pass(self, telemetry):
        return cluster_power_series(
            coarsen_telemetry(telemetry, ["input_power"], width=self.WIDTH)
        )

    @pytest.mark.parametrize("fmt", list(LAYOUTS))
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_layouts_and_backends(self, twin_small, datasets, single_pass,
                                  fmt, backend):
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=self.SHARD_S, backend=backend, max_workers=2))
        got = pipe.telemetry_series(datasets[fmt], ["input_power"])
        assert_tables_equal(got, single_pass)

    @pytest.mark.parametrize("fmt", list(LAYOUTS))
    def test_time_range_equals_filtered_full_read(self, twin_small, telemetry,
                                                  datasets, fmt):
        # range aligned to shard and coarsen-window edges: pruned reads must
        # reproduce exactly what filtering the full read would have given
        t0, t1 = self.SHARD_S, 3 * self.SHARD_S
        t = telemetry["timestamp"]
        ref = cluster_power_series(coarsen_telemetry(
            telemetry.filter((t >= t0) & (t < t1)), ["input_power"],
            width=self.WIDTH,
        ))
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=self.SHARD_S, backend="serial"))
        got = pipe.telemetry_series(datasets[fmt], ["input_power"],
                                    t_begin=t0, t_end=t1)
        assert_tables_equal(got, ref)

    @pytest.mark.parametrize("source", ["table", "dataset"])
    def test_empty_time_range_is_empty_series(self, twin_small, telemetry,
                                              datasets, single_pass, source):
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=self.SHARD_S, backend="serial"))
        src = telemetry if source == "table" else datasets["rcs"]
        got = pipe.telemetry_series(src, ["input_power"],
                                    t_begin=1e6, t_end=2e6)
        assert_tables_equal(got, single_pass[:0])

    def test_time_range_on_table_source(self, twin_small, telemetry):
        t0, t1 = self.SHARD_S, 3 * self.SHARD_S
        t = telemetry["timestamp"]
        ref = cluster_power_series(coarsen_telemetry(
            telemetry.filter((t >= t0) & (t < t1)), ["input_power"],
            width=self.WIDTH,
        ))
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=self.SHARD_S, backend="serial"))
        got = pipe.telemetry_series(telemetry, ["input_power"],
                                    t_begin=t0, t_end=t1)
        assert_tables_equal(got, ref)

    def test_predicate_prunes_shards_before_read(self, twin_small, datasets):
        ds = datasets["rcs"]
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=self.SHARD_S, backend="serial"))
        pipe.telemetry_series(ds, ["input_power"],
                              t_begin=self.SHARD_S, t_end=3 * self.SHARD_S)
        # zone maps admit the two in-range shards plus the one holding the
        # 0-5 s collector-delay spillover at the range edge — the rest of
        # the dataset is never opened
        assert pipe.stats.stage("fused/read").calls < ds.n_partitions
        assert pipe.stats.stage("fused/read").calls <= 3

    @pytest.mark.parametrize("fmt", list(LAYOUTS))
    def test_dataset_cache_cold_then_warm(self, twin_small, datasets,
                                          single_pass, tmp_path, fmt):
        cfg = PipelineConfig(chunk_seconds=self.SHARD_S, backend="serial",
                             cache_dir=tmp_path / "cache")
        cold = Pipeline(twin_small, cfg)
        assert_tables_equal(
            cold.telemetry_series(datasets[fmt], ["input_power"],
                                  cache_token=f"tel-{fmt}"),
            single_pass,
        )
        assert cold.stats.stage("fused").cache_misses > 0
        warm = Pipeline(twin_small, cfg)
        assert_tables_equal(
            warm.telemetry_series(datasets[fmt], ["input_power"],
                                  cache_token=f"tel-{fmt}"),
            single_pass,
        )
        assert warm.stats.stage("fused").cache_misses == 0

    def test_time_range_addresses_different_cache_entries(self, twin_small,
                                                          telemetry, datasets,
                                                          tmp_path):
        # a pruned run must never serve (or poison) the full run's artifacts
        cfg = PipelineConfig(chunk_seconds=self.SHARD_S, backend="serial",
                             cache_dir=tmp_path / "cache")
        ds = datasets["rcs"]
        full = Pipeline(twin_small, cfg).telemetry_series(
            ds, ["input_power"], cache_token="tok")
        pruned_pipe = Pipeline(twin_small, cfg)
        pruned = pruned_pipe.telemetry_series(
            ds, ["input_power"], cache_token="tok",
            t_begin=self.SHARD_S, t_end=3 * self.SHARD_S)
        assert pruned_pipe.stats.stage("fused").cache_hits == 0
        t0, t1 = self.SHARD_S, 3 * self.SHARD_S
        t = telemetry["timestamp"]
        ref = cluster_power_series(coarsen_telemetry(
            telemetry.filter((t >= t0) & (t < t1)), ["input_power"],
            width=self.WIDTH,
        ))
        assert_tables_equal(pruned, ref)
        ts = full["timestamp"]
        assert_tables_equal(
            full.filter((ts >= t0) & (ts < t1)), ref
        )

    def test_coarsen_accepts_dataset(self, datasets, telemetry):
        ref = coarsen_telemetry(telemetry, ["input_power"], width=self.WIDTH)
        got = coarsen_telemetry(datasets["rcs"], ["input_power"],
                                width=self.WIDTH)
        assert_tables_equal(got.sort(["node", "timestamp"]),
                            ref.sort(["node", "timestamp"]))

    def test_aggregate_accepts_dataset(self, coarse, tmp_path):
        from repro.datasets.store import write_partitioned_series

        ds = write_partitioned_series(
            coarse.sort("timestamp"), tmp_path, "coarse", day_s=900.0)
        ref = cluster_power_series(coarse)
        assert_tables_equal(cluster_power_series(ds), ref)
