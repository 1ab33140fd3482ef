"""Differential equivalence: compressed vs raw stores, all routes.

One hour of twin telemetry is written as two byte-different stores —
compressed ``.rcs`` (per-column codecs) and raw ``.rcs``
(``REPRO_RCS_COMPRESSION=off``) — and every pipeline route over them must
produce results bit-identical to the in-memory table's single-pass
reference: batch inline (one worker) and on the thread pool,
projection + time-range pushdown, and the streaming engine.  The artifact
cache's keys are proven disjoint across storage configs and
``CACHE_FORMAT_VERSION`` bumps, so no stale artifact can ever leak
between configurations.
"""

import os
from unittest.mock import patch

import numpy as np
import pytest

import repro.plan
from repro.pipeline import Pipeline, PipelineConfig
from repro.plan import Query
from tests import oracle

STORES = ("compressed", "raw")


def assert_tables_equal(got, want):
    assert got.columns == want.columns
    assert got.n_rows == want.n_rows
    for c in want.columns:
        assert got[c].dtype == want[c].dtype, c
        assert np.array_equal(got[c], want[c]), c


@pytest.fixture(scope="module")
def telemetry(twin_small):
    arr = twin_small.builder.build(0.0, 3600.0, 1.0)
    return twin_small.sampler().sample(arr)


@pytest.fixture(scope="module")
def single_pass(telemetry):
    return oracle.single_pass(telemetry)


@pytest.fixture(scope="module")
def stores(telemetry, tmp_path_factory):
    """The same telemetry as two byte-different on-disk stores."""
    from repro.parallel.partition import PartitionedDataset

    root = tmp_path_factory.mktemp("stores")
    out = {}
    t = telemetry["timestamp"]
    for kind in STORES:
        mode = "off" if kind == "raw" else "auto"
        ds = PartitionedDataset.create(root / kind, f"telemetry-{kind}")
        with patch.dict(os.environ, {"REPRO_RCS_COMPRESSION": mode}):
            for lo in np.arange(0.0, float(t.max()) + 1.0, 900.0):
                sub = telemetry.filter((t >= lo) & (t < lo + 900.0))
                ds.append(sub, lo, lo + 900.0)
        out[kind] = ds
    # the stores must actually differ on disk for this test to mean much
    assert out["compressed"].n_bytes < out["raw"].n_bytes
    enc = out["compressed"].encoding_summary()
    assert sum(n for c, n in enc.items() if c != "raw") > 0
    assert all(p.enc is None for p in out["raw"].partitions)
    return out


def series_over(store, twin, **cfg):
    defaults = dict(max_workers=1)
    defaults.update(cfg)
    return Pipeline(twin, PipelineConfig(**defaults)).telemetry_series(store)


class TestBatchRoutes:
    @pytest.mark.parametrize("kind", STORES)
    def test_fused_serial(self, stores, twin_small, single_pass, kind):
        got = series_over(stores[kind], twin_small)
        assert_tables_equal(got, single_pass)

    # two workers: the fused stage's thread pool (one is test_fused_serial)
    @pytest.mark.parametrize("workers", [2], ids=["threads"])
    def test_compressed_store_backends(self, stores, twin_small,
                                       single_pass, workers):
        got = series_over(stores["compressed"], twin_small,
                          max_workers=workers)
        assert_tables_equal(got, single_pass)

    @pytest.mark.parametrize("workers", [2], ids=["threads"])
    def test_raw_store_backends(self, stores, twin_small, single_pass,
                                workers):
        got = series_over(stores["raw"], twin_small, max_workers=workers)
        assert_tables_equal(got, single_pass)


class TestPushdownRoutes:
    def test_time_range_pushdown_identical_across_stores(self, stores,
                                                         twin_small,
                                                         telemetry):
        query = Query(t_begin=1000.0, t_end=2600.0)
        ref = oracle.single_pass(telemetry, query)
        assert ref.n_rows > 0
        for kind in STORES:
            pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
            assert_tables_equal(pipe.telemetry_series(stores[kind], query),
                                ref)

    def test_zone_pruned_scan_identical(self, stores):
        picks = {
            kind: stores[kind].select_time(900.0, 1800.0)
            for kind in STORES
        }
        assert picks["compressed"] == picks["raw"]
        for kind in STORES:
            assert 0 < len(picks[kind]) < stores[kind].n_partitions

    def test_projected_reads_identical(self, stores, telemetry):
        t = telemetry["timestamp"]
        for i, lo in enumerate(np.arange(0.0, float(t.max()) + 1.0, 900.0)):
            want = telemetry.filter((t >= lo) & (t < lo + 900.0)).select(
                ["timestamp", "input_power"]
            )
            for kind in STORES:
                assert_tables_equal(
                    stores[kind].read_time_range(
                        i, -np.inf, np.inf,
                        columns=["timestamp", "input_power"]),
                    want,
                )


class TestStreamingRoute:
    def test_streamed_aggregate_identical(self, stores, twin_small,
                                          telemetry):
        results = {}
        read_back = [(kind, ds.to_table()) for kind, ds in stores.items()]
        for kind, source in [("memory", telemetry), *read_back]:
            pipe = Pipeline(twin_small, PipelineConfig(max_workers=1))
            graph = pipe.stream_graph(source, skew=False, spectral=False)
            graph.run()
            agg = graph.result("aggregate")
            assert agg is not None and agg.n_rows > 0
            results[kind] = agg
        for kind in STORES:
            assert_tables_equal(results[kind], results["memory"])


class TestCacheIsolation:
    """The artifact cache's keys, through ``Pipeline.cluster_power``."""

    def power_over(self, twin, cache_dir):
        pipe = Pipeline(twin, PipelineConfig(
            max_workers=1, chunk_seconds=21_600.0, cache_dir=cache_dir))
        _, power = pipe.cluster_power()
        return power, pipe.stats.get("cluster_power")

    def test_warm_cache_per_store_config(self, twin_small,
                                         single_pass_power, tmp_path):
        cache_dir = tmp_path / "cache"
        # pin both storage configs: the ambient env (e.g. CI's
        # compression-off job) must not collapse the two key spaces
        with patch.dict(os.environ, {"REPRO_RCS_COMPRESSION": "auto"}):
            _, cold = self.power_over(twin_small, cache_dir)
            assert cold.cache_misses > 0
            warm_power, warm = self.power_over(twin_small, cache_dir)
        assert warm.cache_misses == 0
        assert np.array_equal(warm_power, single_pass_power[1])
        # a compression-off run shares the directory but not the artifacts:
        # the storage config is folded into every key (same spec both
        # times, so nothing else in the key can be what differs)
        with patch.dict(os.environ, {"REPRO_RCS_COMPRESSION": "off"}):
            raw_power, raw = self.power_over(twin_small, cache_dir)
        assert raw.cache_hits == 0
        assert raw.cache_misses == cold.cache_misses
        assert np.array_equal(raw_power, single_pass_power[1])

    def test_format_version_bump_invalidates(self, twin_small,
                                             single_pass_power, tmp_path):
        cache_dir = tmp_path / "cache"
        with patch.object(repro.plan, "CACHE_FORMAT_VERSION",
                          repro.plan.CACHE_FORMAT_VERSION - 1):
            old, _ = self.power_over(twin_small, cache_dir)
        assert np.array_equal(old, single_pass_power[1])
        # same spec, bumped version: every artifact re-addresses (no
        # stale pre-bump artifact is ever served)...
        bumped, stats = self.power_over(twin_small, cache_dir)
        assert stats.cache_hits == 0
        assert stats.cache_misses > 0
        # ...and the output is bit-identical anyway
        assert np.array_equal(bumped, old)
