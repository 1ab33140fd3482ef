"""Chunked pipeline output must be bit-identical to the single-pass path.

Every assertion here is ``np.array_equal`` (or byte equality for exported
files) — not ``allclose``.  The tentpole's contract is exact equality across
chunk sizes, worker counts (one worker runs each stage inline, more run
it on the stage's pool), and cache cold/warm runs.
"""

import hashlib
import os
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from repro.datasets.store import write_log_csvs, write_partitioned_series
from repro.frame.table import Table
from repro.parallel.partition import PartitionedDataset
from repro.pipeline import Pipeline, PipelineConfig
from repro.plan import Query, QueryError, plan_query
from tests.oracle import single_pass

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


def build_dataset(telemetry, root, shard_s=900.0):
    """Archive ``telemetry`` as ``shard_s``-wide shards; the last shard
    catches the 0-5 s collector-delay spillover past the hour."""
    ds = PartitionedDataset.create(root, "telemetry")
    t = telemetry["timestamp"]
    for lo in np.arange(0.0, float(t.max()) + 1.0, shard_s):
        sub = telemetry.filter((t >= lo) & (t < lo + shard_s))
        ds.append(sub, lo, lo + shard_s)
    return ds


class TestClusterPowerEquivalence:
    @pytest.mark.parametrize(
        "chunk_s", [0.1 * DAY, 0.5 * DAY, DAY, 2 * DAY, 10 * DAY]
    )
    def test_chunk_sizes(self, twin_small, single_pass_power, chunk_s):
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=chunk_s,
                                                   max_workers=1))
        times, power = pipe.cluster_power()
        ref_t, ref_p = single_pass_power
        assert np.array_equal(times, ref_t)
        assert np.array_equal(power, ref_p)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "processes"])
    def test_backends(self, twin_small, single_pass_power, workers):
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.25 * DAY, max_workers=workers,
        ))
        times, power = pipe.cluster_power()
        assert np.array_equal(times, single_pass_power[0])
        assert np.array_equal(power, single_pass_power[1])

    def test_seeded_random_chunk_sizes(self, twin_small, single_pass_power):
        # property-style sweep: arbitrary chunk widths never change a bit
        rng = np.random.default_rng(2024)
        for chunk_s in rng.uniform(600.0, 2.5 * DAY, size=6):
            pipe = Pipeline(twin_small, PipelineConfig(
                chunk_seconds=float(chunk_s), max_workers=1,
            ))
            _, power = pipe.cluster_power()
            assert np.array_equal(power, single_pass_power[1]), chunk_s


class TestJobSeriesEquivalence:
    @pytest.mark.parametrize("chunk_s", [0.1 * DAY, 0.5 * DAY, DAY, 3 * DAY])
    def test_chunk_sizes(self, twin_small, single_pass_series, chunk_s):
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=chunk_s,
                                                   max_workers=1))
        assert_tables_equal(pipe.job_series(), single_pass_series)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "processes"])
    def test_backends(self, twin_small, single_pass_series, workers):
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.5 * DAY, max_workers=workers,
        ))
        assert_tables_equal(pipe.job_series(), single_pass_series)

    def test_components(self, twin_small):
        ref = twin_small.job_series(components=True)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=0.4 * DAY,
                                                   max_workers=1))
        assert_tables_equal(pipe.job_series(components=True), ref)


class TestFusedEquivalence:
    """telemetry_series: one plan task per shard == single-pass."""

    @pytest.mark.parametrize("chunk_s", [300.0, 1000.0, 3600.0, DAY])
    def test_fused_chunk_sizes(self, twin_small, telemetry, tmp_path,
                               chunk_s):
        # the archive's shard width is the chunking: 13, 4, 2 and 1 shards
        ds = build_dataset(telemetry, tmp_path / "tel", chunk_s)
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
        assert_tables_equal(pipe.telemetry_series(ds), single_pass(telemetry))

    def test_fused_dataset_source(self, twin_small, telemetry, tmp_path):
        ds = build_dataset(telemetry, tmp_path / "tel")
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
        got = pipe.telemetry_series(ds)
        assert_tables_equal(got, single_pass(telemetry))
        assert pipe.stats.get("fused").calls == ds.n_partitions
        assert list(pipe.stats.records) == ["fused"]

    def test_stale_handle_after_compact(self, twin_small, telemetry,
                                        tmp_path):
        ds = build_dataset(telemetry, tmp_path / "tel")
        stale = PartitionedDataset(ds.root)
        assert ds.compact(target_rows=10**9)["rewritten"] > 0
        assert not (ds.root / stale.partitions[0].filename).exists()
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
        assert_tables_equal(pipe.telemetry_series(stale),
                            single_pass(telemetry))


class TestShardEdges:
    """A coarsen window with rows in two shards is refused, not answered
    twice."""

    @pytest.mark.parametrize("width", [7.0, 40.0, 700.0])
    def test_straddling_width_rejected_until_compacted(
        self, twin_small, telemetry, tmp_path, width
    ):
        ds = build_dataset(telemetry, tmp_path / "tel")
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
        q = Query(width=width)
        for run in (lambda: pipe.telemetry_series(ds, q),
                    lambda: plan_query(q, ds).execute()):
            with pytest.raises(QueryError, match=f"width {width:g} ") as err:
                run()
            assert "part-00000.rcs and part-00001.rcs" in str(err.value)
        ds.compact(target_rows=10**9)
        one = PartitionedDataset(ds.root)
        assert one.n_partitions == 1
        assert_tables_equal(pipe.telemetry_series(one, q),
                            single_pass(telemetry, q))

    def test_overlapping_shards_name_compact(self, twin_small, telemetry,
                                             tmp_path):
        # un-compacted streaming appends: declared extents tile, rows do not
        ds = PartitionedDataset.create(tmp_path / "tel", "telemetry")
        t = telemetry["timestamp"]
        late = (t >= 895.0) & (telemetry["node"] % 2 == 1)
        ds.append(telemetry.filter((t < 905.0) & ~late), 0.0, 900.0)
        ds.append(telemetry.filter((t >= 905.0) | late), 900.0, 3700.0)
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
        with pytest.raises(QueryError, match="overlap.*compact"):
            pipe.telemetry_series(ds)
        ds.compact(target_rows=10**9)
        assert_tables_equal(
            pipe.telemetry_series(PartitionedDataset(ds.root)),
            single_pass(telemetry),
        )

    @pytest.mark.parametrize("query", [
        Query(width=30.0),                          # divides 900
        Query(width=7.0, t_begin=0.0, t_end=890.0),  # one shard survives
        Query(width=7.0, level="raw"),              # no kernels, no windows
    ], ids=["divisor", "single-shard", "raw"])
    def test_still_answered(self, twin_small, telemetry, tmp_path, query):
        ds = build_dataset(telemetry, tmp_path / "tel")
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
        got = pipe.telemetry_series(ds, query)
        if query.level == "raw":
            assert got.n_rows == telemetry.n_rows
        else:
            assert_tables_equal(got, single_pass(telemetry, query))


class TestCacheEquivalence:
    def test_cold_then_warm_identical(self, twin_small, single_pass_series,
                                      single_pass_power, tmp_path):
        cfg = PipelineConfig(chunk_seconds=0.5 * DAY, max_workers=1,
                             cache_dir=tmp_path / "cache")
        cold = Pipeline(twin_small, cfg)
        assert_tables_equal(cold.job_series(), single_pass_series)
        _, cold_p = cold.cluster_power()
        assert np.array_equal(cold_p, single_pass_power[1])
        assert cold.stats.total("cache_hits") == 0
        assert cold.stats.total("cache_misses") > 0

        warm = Pipeline(twin_small, cfg)
        assert_tables_equal(warm.job_series(), single_pass_series)
        _, warm_p = warm.cluster_power()
        assert np.array_equal(warm_p, single_pass_power[1])
        assert warm.stats.total("cache_misses") == 0
        assert warm.stats.total("cache_hits") == cold.stats.total("cache_misses")

    def test_warm_across_chunk_size_change_is_a_miss(self, twin_small,
                                                     single_pass_power,
                                                     tmp_path):
        # the chunk layout is part of the address: changing it re-computes
        # (correctly) rather than stitching stale shards
        a = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.5 * DAY, max_workers=1,
            cache_dir=tmp_path / "cache"))
        a.cluster_power()
        b = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.3 * DAY, max_workers=1,
            cache_dir=tmp_path / "cache"))
        _, p = b.cluster_power()
        assert np.array_equal(p, single_pass_power[1])
        assert b.stats.total("cache_misses") > 0


def export_single_pass(twin, root: Path) -> None:
    """The export with both series derived in one in-memory pass."""
    write_log_csvs(twin, root)
    write_partitioned_series(twin.job_series(), root, "job_series")
    times, power = twin.cluster_power()
    write_partitioned_series(
        Table({"timestamp": times, "sum_inp": power}),
        root, "cluster_power", t_end=twin.spec.horizon_s,
    )


class TestExportEquivalence:
    def test_export_matches_classic_path(self, twin_small, tmp_path):
        ref_root = tmp_path / "ref"
        export_single_pass(twin_small, ref_root)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=0.5 * DAY,
                                                   max_workers=1))
        got_root = tmp_path / "got"
        pipe.export(got_root)
        ref = _tree_digest(ref_root)
        got = _tree_digest(got_root)
        assert got == ref


class TestPushdownEquivalence:
    """Projection + predicate pushdown never changes a bit.

    compressed == raw shards, projected == full, pruned == filtered —
    inline (one worker) and on the thread pool.
    """

    SHARD_S = 900.0
    #: range aligned to shard and coarsen-window edges
    RANGE = dict(t_begin=SHARD_S, t_end=3 * SHARD_S)

    #: store name -> the ``REPRO_RCS_COMPRESSION`` mode it is written under
    LAYOUTS = {"rcs": "auto", "rcs-raw": "off"}

    QUERIES = {
        "cluster": Query(),
        "cluster-range": Query(**RANGE),
        "cluster-nodes": Query(nodes=(1, 4, 9)),
        "node": Query(level="node"),
        "node-sliced": Query(level="node", nodes=(0, 11),
                             t_begin=1000.0, t_end=2605.0),
    }

    @pytest.fixture(scope="class")
    def datasets(self, telemetry, tmp_path_factory):
        root = tmp_path_factory.mktemp("push")
        out = {}
        for fmt, mode in self.LAYOUTS.items():
            with patch.dict(os.environ, {"REPRO_RCS_COMPRESSION": mode}):
                out[fmt] = build_dataset(telemetry, root / fmt, self.SHARD_S)
        return out

    @pytest.mark.parametrize("fmt", list(LAYOUTS))
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "threads"])
    def test_layouts_and_backends(self, twin_small, telemetry, datasets,
                                  fmt, workers):
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=workers))
        got = pipe.telemetry_series(datasets[fmt])
        assert_tables_equal(got, single_pass(telemetry))

    @pytest.mark.parametrize("name", list(QUERIES))
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "threads"])
    def test_query_matrix(self, twin_small, telemetry, datasets, workers,
                          name):
        # pipeline == in-process plan == kernels over the filtered table
        query = self.QUERIES[name]
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=workers))
        got = pipe.telemetry_series(datasets["rcs"], query)
        assert_tables_equal(got, plan_query(query, datasets["rcs"]).execute())
        assert_tables_equal(got, single_pass(telemetry, query))

    @pytest.mark.parametrize("fmt", list(LAYOUTS))
    def test_time_range_equals_filtered_full_read(self, twin_small, telemetry,
                                                  datasets, fmt):
        # pruned reads must reproduce exactly what filtering the full read
        # would have given
        query = Query(**self.RANGE)
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
        assert_tables_equal(pipe.telemetry_series(datasets[fmt], query),
                            single_pass(telemetry, query))

    @pytest.mark.parametrize("fmt", list(LAYOUTS))
    def test_empty_time_range_is_empty_series(self, twin_small, telemetry,
                                              datasets, fmt):
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
        got = pipe.telemetry_series(datasets[fmt],
                                    Query(t_begin=1e6, t_end=2e6))
        assert_tables_equal(got, single_pass(telemetry)[:0])

    def test_predicate_prunes_shards_before_read(self, twin_small, datasets):
        ds = datasets["rcs"]
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
        pipe.telemetry_series(ds, Query(**self.RANGE))
        # zone maps admit the two in-range shards plus the one holding the
        # 0-5 s collector-delay spillover at the range edge — the rest of
        # the dataset is never opened
        assert pipe.stats.get("fused").calls < ds.n_partitions
        assert pipe.stats.get("fused").calls <= 3

    def test_archive_stage_is_never_cached(self, twin_small, datasets,
                                           tmp_path):
        # the archive is already on disk: a cache_dir caches twin stages
        # only, and the fused stage neither looks up nor writes artifacts
        cache_dir = tmp_path / "cache"
        pipe = Pipeline(twin_small, PipelineConfig(max_workers=1,
                                                   cache_dir=cache_dir))
        pipe.telemetry_series(datasets["rcs"])
        assert pipe.stats.get("fused").cache_misses == 0
        assert pipe.stats.get("fused").cache_hits == 0
        assert not any(p.is_file() for p in cache_dir.rglob("*"))
