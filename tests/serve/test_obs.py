"""Observability hooks of the query service: the slow-query NDJSON log,
the ``obs`` block in ``snapshot()``, and the span tree a traced query
leaves behind."""

import asyncio
import json

import pytest

from repro.obs import trace
from repro.obs.export import validate_spans
from repro.plan import Query
from repro.serve import QueryService, ServiceConfig


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def logged_service(dataset, tmp_path):
    svc = QueryService(dataset, ServiceConfig(
        max_inflight=2, max_queue=2, tenant_inflight=2, workers=2,
        slow_query_s=0.0, slow_query_log=tmp_path / "slow.ndjson",
    ))
    yield svc
    svc.close()


class TestSlowQueryLog:
    def test_every_query_logged_at_zero_threshold(self, logged_service):
        async def main():
            q = Query(t_begin=0.0, t_end=900.0)
            return await logged_service.query(q), \
                await logged_service.query(q, tenant="other")

        cold, warm = run(main())
        assert (cold["cache"], warm["cache"]) == ("miss", "hit")

        log_text = open(logged_service.slow_log.path).read()
        records = [json.loads(line) for line in log_text.splitlines()]
        assert [r["cache"] for r in records] == ["miss", "hit"]
        fingerprints = {r["fingerprint"] for r in records}
        assert len(fingerprints) == 1  # same query both times
        for rec in records:
            assert rec["event"] == "slow_query"
            assert rec["rows"] == len(cold["table"]["timestamp"])
            assert rec["elapsed_s"] >= 0.0
        # only the executed query carries the per-shard task breakdown
        assert records[0]["tasks"] and all(
            set(t) == {"shard", "coverage", "source", "s"}
            for t in records[0]["tasks"]
        )
        assert records[1]["tasks"] is None

    def test_threshold_filters_fast_queries(self, dataset, tmp_path):
        svc = QueryService(dataset, ServiceConfig(
            workers=2, tenant_inflight=2,
            slow_query_s=3600.0, slow_query_log=tmp_path / "slow.ndjson",
        ))
        try:
            resp = run(svc.query(Query(t_begin=0.0, t_end=600.0)))
            assert resp["status"] == "ok"
            assert svc.slow_log.written == 0
        finally:
            svc.close()


    @pytest.mark.parametrize("threshold", [float("inf"), float("nan"), -1e-3])
    def test_unreportable_threshold_is_refused(self, threshold):
        # the stats answer reports the threshold and is strict JSON, so a
        # non-finite one would make every stats request an error
        with pytest.raises(ValueError, match=f"slow_query_s .* {threshold}"):
            ServiceConfig(slow_query_s=threshold)


class TestSnapshotObs:
    def test_obs_block_shape(self, logged_service):
        run(logged_service.query(Query(t_begin=0.0, t_end=600.0)))
        obs = logged_service.snapshot()["obs"]
        assert set(obs) == {"tracing", "trace_file", "slow_query_s",
                            "slow_query_log", "slow_queries"}
        assert obs["tracing"] is False
        assert obs["slow_query_s"] == 0.0
        assert obs["slow_queries"] == 1

    def test_obs_block_without_slow_log(self, dataset):
        svc = QueryService(dataset, ServiceConfig(workers=2,
                                                  tenant_inflight=2))
        try:
            obs = svc.snapshot()["obs"]
            assert obs["slow_query_log"] is None
            assert obs["slow_queries"] == 0
        finally:
            svc.close()


class TestTracedQuery:
    def test_cold_query_span_tree(self, dataset, tmp_path):
        svc = QueryService(dataset, ServiceConfig(workers=2,
                                                  tenant_inflight=2))
        trace.enable(tmp_path / "trace.jsonl")
        try:
            resp = run(svc.query(Query(t_begin=0.0, t_end=900.0)))
            assert (resp["status"], resp["cache"]) == ("ok", "miss")
        finally:
            trace.disable()
            svc.close()

        records = [json.loads(line) for line in
                   (tmp_path / "trace.jsonl").read_text().splitlines()]
        forest = validate_spans(records)
        names = {r["name"] for r in records}
        assert {"serve.query", "serve.admit", "plan.query",
                "serve.task", "serve.task.exec", "plan.fragment",
                "serve.merge"} <= names
        # one name per step, named after the module that runs it
        assert not {"serve.plan", "serve.plan_query",
                    "serve.fragment.compute"} & names
        (plan,) = [r for r in records if r["name"] == "plan.query"]
        assert plan["attrs"]["shards"] == resp["shards"]["scanned"]
        assert plan["attrs"]["pruned"] == resp["shards"]["pruned"]

        edges = set()

        def walk(node):
            for child in node.children:
                edges.add((node.name, child.name))
                walk(child)

        for root in forest:
            walk(root)
        assert ("serve.query", "plan.query") in edges
        assert ("serve.task", "serve.task.exec") in edges
        assert ("serve.task.exec", "plan.fragment") in edges
        assert ("serve.query", "serve.merge") in edges
