"""Differential equivalence: compressed vs raw stores, all routes.

One hour of twin telemetry is written as two byte-different stores —
compressed ``.rcs`` (per-column codecs) and raw ``.rcs``
(``REPRO_RCS_COMPRESSION=off``) — and every pipeline route over them must
produce results bit-identical to the in-memory table's single-pass
reference: batch over the serial, threads and processes backends,
projection + time-range pushdown, the streaming engine, and warm artifact
caches (whose keys are proven disjoint across storage configs and
``CACHE_FORMAT_VERSION`` bumps, so no stale artifact can ever leak
between configurations).
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


def series_over(store, twin, cache_token=None, **cfg):
    defaults = dict(backend="serial")
    defaults.update(cfg)
    pipe = Pipeline(twin, PipelineConfig(**defaults))
    got = pipe.telemetry_series(store, cache_token=cache_token)
    return got, pipe


class TestBatchRoutes:
    @pytest.mark.parametrize("kind", STORES)
    def test_fused_serial(self, stores, twin_small, single_pass, kind):
        got, _ = series_over(stores[kind], twin_small)
        assert_tables_equal(got, single_pass)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_compressed_store_backends(self, stores, twin_small,
                                       single_pass, backend):
        # processes: decoded columns cannot ship as mmap refs — the shm
        # copy fallback must still be bit-identical
        got, _ = series_over(stores["compressed"], twin_small,
                             backend=backend, max_workers=2)
        assert_tables_equal(got, single_pass)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_raw_store_backends(self, stores, twin_small, single_pass,
                                backend):
        got, _ = series_over(stores["raw"], twin_small,
                             backend=backend, max_workers=2)
        assert_tables_equal(got, single_pass)


class TestPushdownRoutes:
    def test_time_range_pushdown_identical_across_stores(self, stores,
                                                         twin_small,
                                                         telemetry):
        query = Query(t_begin=1000.0, t_end=2600.0)
        ref = oracle.single_pass(telemetry, query)
        assert ref.n_rows > 0
        for kind in STORES:
            pipe = Pipeline(twin_small, PipelineConfig(backend="serial"))
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
            pipe = Pipeline(twin_small, PipelineConfig(backend="serial"))
            graph = pipe.stream_graph(source, skew=False, spectral=False)
            graph.run()
            agg = graph.result("aggregate")
            assert agg is not None and agg.n_rows > 0
            results[kind] = agg
        for kind in STORES:
            assert_tables_equal(results[kind], results["memory"])


class TestCacheIsolation:
    def test_warm_cache_per_store_config(self, stores, twin_small,
                                         single_pass, tmp_path):
        cache_dir = tmp_path / "cache"
        cfg = dict(backend="serial", cache_dir=cache_dir,
                   cache_token="tel-hour")
        # pin both storage configs: the ambient env (e.g. CI's
        # compression-off job) must not collapse the two key spaces
        with patch.dict(os.environ, {"REPRO_RCS_COMPRESSION": "auto"}):
            cold, pipe_cold = series_over(stores["compressed"], twin_small,
                                          **cfg)
            assert pipe_cold.stats.get("fused").cache_misses > 0
            warm, pipe_warm = series_over(stores["compressed"], twin_small,
                                          **cfg)
        assert pipe_warm.stats.get("fused").cache_misses == 0
        assert_tables_equal(warm, single_pass)
        # a compression-off run shares the directory but not the artifacts:
        # the storage config is folded into every key (same store both
        # times, so the shard identity in the key cannot be what differs)
        with patch.dict(os.environ, {"REPRO_RCS_COMPRESSION": "off"}):
            raw, pipe_raw = series_over(stores["compressed"], twin_small,
                                        **cfg)
        assert pipe_raw.stats.get("fused").cache_hits == 0
        assert pipe_raw.stats.get("fused").cache_misses > 0
        assert_tables_equal(raw, single_pass)

    def test_format_version_bump_invalidates(self, stores, twin_small,
                                             single_pass, tmp_path):
        cfg = dict(backend="serial", cache_dir=tmp_path / "cache",
                   cache_token="tel-hour")
        with patch.object(repro.plan, "CACHE_FORMAT_VERSION",
                          repro.plan.CACHE_FORMAT_VERSION - 1):
            old, _ = series_over(stores["compressed"], twin_small, **cfg)
        assert_tables_equal(old, single_pass)
        # same store, bumped version: every artifact re-addresses (no
        # stale pre-bump artifact is ever served)...
        bumped, pipe = series_over(stores["compressed"], twin_small, **cfg)
        assert pipe.stats.get("fused").cache_hits == 0
        assert pipe.stats.get("fused").cache_misses > 0
        # ...and the output is bit-identical anyway
        assert_tables_equal(bumped, old)
