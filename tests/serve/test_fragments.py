"""The fragment cache: task classification, cross-query reuse, and the
bit-identity battery.

The load-bearing property: every answer the fragment-cached service gives
is **bit-identical** to the direct plan execution (``plan_query(q,
ds).execute()``, which never touches the cache) and to the single-pass
kernels — for random overlapping query sequences and across a concurrent
``compact()`` (generation-carrying fragment keys must make stale reuse
impossible).
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frame.table import Table
from repro.parallel.partition import PartitionedDataset
from repro.pipeline import Pipeline, PipelineConfig
from repro.plan import Query, plan_query
from repro.serve import QueryService, ResultCache, ServiceConfig
from tests.oracle import single_pass

from .conftest import SHARD_S, SPEC


def run(coro):
    return asyncio.run(coro)


def make_service(dataset, **kw):
    cfg = dict(max_inflight=16, max_queue=32, tenant_inflight=32, workers=2)
    cfg.update(kw)
    return QueryService(dataset, ServiceConfig(**cfg))


async def answer(service, query, tenant="default"):
    resp = await service.query(query, tenant=tenant)
    assert resp["status"] == "ok", resp
    return resp


class TestFragmentCacheUnit:
    def _table(self, n=64):
        return Table({"x": np.arange(n, dtype=np.float64)})

    def test_miss_then_hit(self):
        cache = ResultCache(1 << 20)
        assert cache.get("k") is None
        cache.put("k", self._table())
        assert cache.get("k") == self._table()
        assert cache.hits == 1 and cache.misses == 1

    def test_byte_cap_evicts_lru(self):
        one = self._table().nbytes()
        cache = ResultCache(one * 2)
        cache.put("a", self._table())
        cache.put("b", self._table())
        cache.get("a")  # refresh: b becomes LRU
        cache.put("c", self._table())
        assert cache.get("b") is None and cache.get("a") is not None
        assert cache.evictions == 1

    def test_clear_resets_entries_not_counters(self):
        cache = ResultCache(1 << 20)
        cache.put("a", self._table())
        cache.get("a")
        assert cache.clear() == 1
        assert cache.n_entries == 0 and cache.n_bytes == 0
        assert cache.hits == 1


class TestTaskClassification:
    def test_full_coverage_tasks_are_fragments(self, dataset):
        plan = plan_query(Query(t_begin=0.0, t_end=SPEC.horizon_s), dataset)
        tasks = plan.tasks()
        assert [t.coverage for t in tasks] == ["full"] * len(plan.shards)
        assert all(t.fragment_key for t in tasks)
        # canonical bounds: a full task reads everything
        assert all(np.isinf(t.lo) and np.isinf(t.hi) for t in tasks)

    def test_aligned_edges_slice_fragments(self, dataset):
        # 60 and 1260 sit on the width-10 grid mid-shard
        plan = plan_query(Query(t_begin=60.0, t_end=1260.0), dataset)
        kinds = [t.coverage for t in plan.tasks()]
        assert kinds[0] == "aligned" and kinds[-1] == "aligned"
        assert all(k == "full" for k in kinds[1:-1])

    def test_unaligned_edges_are_uncached_partials(self, dataset):
        plan = plan_query(Query(t_begin=97.0, t_end=1234.5), dataset)
        tasks = plan.tasks()
        assert tasks[0].coverage == "partial"
        assert tasks[-1].coverage == "partial"
        assert tasks[0].fragment_key is None

    def test_overlapping_queries_share_fragment_keys(self, dataset):
        a = plan_query(Query(t_begin=0.0, t_end=1500.0), dataset)
        b = plan_query(Query(t_begin=300.0, t_end=SPEC.horizon_s), dataset)
        keys_a = {t.index: t.fragment_key for t in a.tasks()
                  if t.coverage == "full"}
        keys_b = {t.index: t.fragment_key for t in b.tasks()
                  if t.coverage == "full"}
        shared = set(keys_a) & set(keys_b)
        assert shared, "overlapping full-coverage shards expected"
        assert all(keys_a[i] == keys_b[i] for i in shared)

    def test_kernel_params_split_fragment_keys(self, dataset):
        full = Query(t_begin=0.0, t_end=SPEC.horizon_s)
        base = plan_query(full, dataset)
        for other in (
            Query(t_begin=0.0, t_end=SPEC.horizon_s, width=30.0),
            Query(t_begin=0.0, t_end=SPEC.horizon_s, level="node"),
            Query(t_begin=0.0, t_end=SPEC.horizon_s, nodes=(0, 1)),
        ):
            plan = plan_query(other, dataset)
            assert plan.fragment_key(plan.shards[0]) != base.fragment_key(
                base.shards[0]
            )

    def test_raw_level_is_one_task_per_shard(self, dataset):
        plan = plan_query(Query(t_begin=0.0, t_end=900.0, level="raw"),
                          dataset)
        tasks = plan.tasks()
        assert [t.index for t in tasks] == plan.shards
        assert len(tasks) > 1
        for t in tasks:
            assert t.coverage == "raw" and t.fragment_key is None

    def test_aligned_slice_is_bit_identical(self, dataset):
        # the property the whole cache rests on: slice-of-full-fragment
        # == compute-of-slice for grid-aligned bounds
        plan = plan_query(Query(t_begin=60.0, t_end=1260.0), dataset)
        for task in plan.tasks():
            if task.coverage != "aligned":
                continue
            direct = plan.run_task(task)
            sliced = plan.slice_fragment(
                plan.run_fragment(task.index), task.lo, task.hi
            )
            assert direct == sliced


class TestServiceEquivalence:
    OVERLAPPING = [
        Query(t_begin=0.0, t_end=1800.0),
        Query(t_begin=60.0, t_end=1260.0),
        Query(t_begin=90.0, t_end=1290.0),
        Query(t_begin=97.0, t_end=1234.5),
        Query(t_begin=60.0, t_end=1260.0, level="node"),
        Query(t_begin=60.0, t_end=660.0, level="raw"),
        Query(t_begin=0.0, t_end=1800.0, derived="pue"),
        Query(t_begin=120.0, t_end=1320.0, nodes=(0, 1, 2, 3)),
        Query(t_begin=120.0, t_end=1320.0, width=30.0),
    ]

    def test_sequence_matches_plan(self, dataset):
        svc = make_service(dataset)

        async def main():
            for q in self.OVERLAPPING:
                got = await answer(svc, q)
                assert got["table"] == plan_query(q, dataset).execute(), q

        try:
            run(main())
            assert svc.stats.frag_hits > 0, "overlap never reused"
        finally:
            svc.close()

    def test_full_range_matches_pipeline(self, dataset, telemetry):
        q = Query(t_begin=0.0, t_end=SPEC.horizon_s)
        svc = make_service(dataset)
        try:
            resp = run(answer(svc, q))
        finally:
            svc.close()
        pipe = Pipeline(SPEC, PipelineConfig(max_workers=1))
        assert resp["table"] == pipe.telemetry_series(dataset, q)
        assert resp["table"] == single_pass(telemetry, q)

    def test_concurrent_overlap_shares_flights(self, dataset):
        """8 concurrent overlapping queries: every distinct fragment is
        computed exactly once between them (hit or shared, never twice)."""
        svc = make_service(dataset)
        queries = [
            Query(t_begin=60.0 * i, t_end=60.0 * i + 900.0)
            for i in range(8)
        ]

        async def main():
            return await asyncio.gather(
                *(answer(svc, q, tenant=f"dash{i}")
                  for i, q in enumerate(queries))
            )

        try:
            resps = run(main())
            for q, r in zip(queries, resps):
                assert r["table"] == plan_query(q, dataset).execute()
            computed = svc.fragments.n_entries
            keys = set()
            for q in queries:
                plan = plan_query(q, dataset)
                keys |= {t.fragment_key for t in plan.tasks()
                         if t.fragment_key}
            assert computed == len(keys)
            reused = svc.stats.frag_hits + svc.stats.frag_shared
            assert reused == sum(
                len([t for t in plan_query(q, dataset).tasks()
                     if t.fragment_key])
                for q in queries
            ) - len(keys)
        finally:
            svc.close()

    def test_counters_and_snapshot(self, dataset):
        svc = make_service(dataset)

        async def main():
            await answer(svc, Query(t_begin=60.0, t_end=1260.0), "a")
            await answer(svc, Query(t_begin=90.0, t_end=1290.0), "a")

        try:
            run(main())
            snap = svc.snapshot()
        finally:
            svc.close()
        frag = snap["fragment_cache"]
        assert frag["entries"] > 0
        assert snap["frag_hits"] > 0 and snap["frag_misses"] > 0
        assert snap["tasks_aligned"] >= 2
        assert 0.0 < snap["partial_coverage_ratio"] < 1.0
        assert snap["fanout_mean"] > 0
        assert snap["tenants"]["a"]["frag_hits"] > 0
        assert snap["tenants"]["a"]["shards_scanned"] > 0
        assert "fragments hit / shared / computed" in svc.report()


def _query_strategy():
    widths = st.sampled_from([5.0, 10.0, 30.0])
    grid = st.integers(min_value=0, max_value=int(SPEC.horizon_s / 10.0))

    @st.composite
    def one(draw):
        width = draw(widths)
        if draw(st.booleans()):  # grid-aligned bounds
            lo = draw(grid) * 10.0
            hi = draw(grid) * 10.0
        else:
            lo = draw(st.floats(0.0, SPEC.horizon_s, allow_nan=False))
            hi = draw(st.floats(0.0, SPEC.horizon_s, allow_nan=False))
        lo, hi = min(lo, hi), max(lo, hi)
        if lo == hi:
            hi = lo + width
        level = draw(st.sampled_from(
            ["cluster", "cluster", "cluster", "node", "raw"]
        ))
        nodes = draw(st.one_of(st.none(), st.just((0, 1, 2))))
        return Query(
            t_begin=lo, t_end=hi, width=width, level=level, nodes=nodes,
            derived="pue" if level == "cluster" and draw(st.booleans())
            else None,
        )

    return st.lists(one(), min_size=2, max_size=6)


class TestPropertyBattery:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(queries=_query_strategy())
    def test_random_overlaps_bit_identical(self, dataset, queries):
        """Random overlapping sequences: fragment-cached service ==
        direct plan execution, bit-identical."""
        svc = make_service(dataset)

        async def main():
            for q in queries:
                got = await answer(svc, q)
                assert got["table"] == plan_query(q, dataset).execute(), q

        try:
            run(main())
        finally:
            svc.close()


@pytest.fixture()
def small_dataset(telemetry, tmp_path):
    """A private, compactable archive (the session dataset is read-only)."""
    from repro.datasets.store import write_partitioned_series

    return write_partitioned_series(
        telemetry, tmp_path, "telemetry", day_s=SHARD_S / 2
    )


class TestCompaction:
    QUERIES = [
        Query(t_begin=0.0, t_end=1800.0),
        Query(t_begin=60.0, t_end=1260.0),
        Query(t_begin=97.0, t_end=1500.0),
    ]

    def test_compact_rewrites_fragment_keys(self, small_dataset):
        q = self.QUERIES[0]
        before = plan_query(q, small_dataset)
        keys_before = {before.fragment_key(i) for i in before.shards}
        stats = small_dataset.compact(target_rows=small_dataset.n_rows)
        assert stats["rewritten"] > 0
        fresh = PartitionedDataset(small_dataset.root)
        after = plan_query(q, fresh)
        keys_after = {after.fragment_key(i) for i in after.shards}
        # rewritten shards can never alias a pre-compaction fragment
        assert keys_before.isdisjoint(keys_after)

    def test_stale_service_stays_bit_identical_after_compact(
        self, small_dataset
    ):
        refs = [plan_query(q, small_dataset).execute()
                for q in self.QUERIES]
        svc = make_service(small_dataset)

        async def main():
            for q, ref in zip(self.QUERIES, refs):
                assert (await answer(svc, q))["table"] == ref
            # compact under the service's feet (fresh handle: the
            # service's stale manifest is the point of the test)
            PartitionedDataset(small_dataset.root).compact(
                target_rows=small_dataset.n_rows
            )
            svc.cache.clear()  # force re-execution over stale metas
            for q, ref in zip(self.QUERIES, refs):
                assert (await answer(svc, q))["table"] == ref

        try:
            run(main())
        finally:
            svc.close()

    def test_queries_concurrent_with_compact_bit_identical(
        self, small_dataset
    ):
        queries = [
            Query(t_begin=120.0 * i, t_end=120.0 * i + 900.0)
            for i in range(6)
        ]
        refs = [plan_query(q, small_dataset).execute() for q in queries]
        svc = make_service(small_dataset)

        async def main():
            loop = asyncio.get_running_loop()
            compacting = loop.run_in_executor(
                None,
                lambda: PartitionedDataset(small_dataset.root).compact(
                    target_rows=small_dataset.n_rows
                ),
            )
            resps = await asyncio.gather(
                *(answer(svc, q, tenant=f"t{i}")
                  for i, q in enumerate(queries))
            )
            await compacting
            # and again after the swap, through the same (stale) service
            svc.cache.clear()
            again = await asyncio.gather(
                *(answer(svc, q, tenant=f"t{i}")
                  for i, q in enumerate(queries))
            )
            return resps, again

        try:
            resps, again = run(main())
            for ref, r1, r2 in zip(refs, resps, again):
                assert r1["table"] == ref
                assert r2["table"] == ref
        finally:
            svc.close()

    def test_fresh_service_on_compacted_store_matches(self, small_dataset):
        refs = [plan_query(q, small_dataset).execute()
                for q in self.QUERIES]
        PartitionedDataset(small_dataset.root).compact(
            target_rows=small_dataset.n_rows
        )
        fresh = PartitionedDataset(small_dataset.root)
        svc = make_service(fresh)

        async def main():
            for q, ref in zip(self.QUERIES, refs):
                assert (await answer(svc, q))["table"] == ref

        try:
            run(main())
        finally:
            svc.close()
