"""End-to-end service behavior: cache tiers, single-flight sharing,
explicit overload rejection, and the TCP wire protocol."""

import asyncio
import base64
import json
import os
import re
import socket
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import cap_workers
from repro.datasets.store import write_partitioned_series
from repro.frame.table import Table
from repro.parallel.executor import default_workers
from repro.plan import Query, QueryPlan, plan_query
from repro.serve import (
    QueryClient,
    QueryService,
    ServiceConfig,
    TelemetryServer,
    table_from_wire,
    table_to_wire,
)
from repro.serve.server import MAX_REQUEST_BYTES
from repro.serve.session import MAX_TENANT_NAME, MAX_TENANTS

from .conftest import SHARD_S

#: the response size at which the TCP layer encodes on the worker pool
OFFLOAD_AT = "repro.serve.server.ENCODE_OFFLOAD_MIN_BYTES"


#: distinct widths that make queries distinct *and* answerable: each
#: divides the archive's 300 s shards, so no coarsen window straddles one
DIVISORS_OF_SHARD = (10.0, 12.0, 15.0, 20.0, 25.0, 30.0, 50.0, 60.0)


def run(coro):
    return asyncio.run(coro)


def strict_loads(line):
    """``json.loads`` that refuses the bare ``NaN`` / ``Infinity`` /
    ``-Infinity`` tokens Python's parser accepts and JSON does not have."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(line, parse_constant=refuse)


def exchange(service, requests):
    """Serve ``service`` over TCP, send each request line on one raw
    connection, return the raw response lines."""
    async def main():
        server = TelemetryServer(service)
        host, port = await server.start()
        lines = []

        def client_side():
            with socket.create_connection(
                (host, port), timeout=30
            ) as sk, sk.makefile("rwb") as f:
                for request in requests:
                    f.write(json.dumps(request).encode() + b"\n")
                    f.flush()
                    lines.append(f.readline())

        worker = threading.Thread(target=client_side)
        worker.start()
        while worker.is_alive():
            await asyncio.sleep(0.02)
        worker.join()
        await server.stop()
        return lines

    return run(main())


def bits(column):
    """A column's values as native-order bytes (the bit-equality oracle:
    ``Table.__eq__`` calls all NaNs equal and ``-0.0 == 0.0``)."""
    column = np.asarray(column)
    return column.astype(column.dtype.newbyteorder("=")).tobytes()


PACKED_DTYPES = ("f2", "f4", "f8", "i1", "i2", "i4", "i8",
                 "u1", "u2", "u4", "u8")


def special_values(dtype):
    """The values a lossy encoding would lose, for one numeric dtype."""
    if dtype.kind != "f":
        info = np.iinfo(dtype)
        return np.array([info.min, info.max, 0], dtype=dtype)
    info = np.finfo(dtype)
    values = np.array(
        [np.nan, -0.0, np.inf, -np.inf, info.smallest_subnormal,
         -info.smallest_subnormal, info.max, info.min], dtype=dtype)
    as_uint = np.dtype(f"u{dtype.itemsize}")
    payload_nan = (values[:1].view(as_uint) | as_uint.type(1)).view(dtype)
    return np.concatenate([values, payload_nan])


@st.composite
def wire_column(draw, n_rows):
    kind = draw(st.sampled_from(PACKED_DTYPES + ("bool", "U")))
    if kind == "U":
        return np.array(draw(st.lists(st.text(max_size=5), min_size=n_rows,
                                      max_size=n_rows)), dtype=str)
    if kind == "bool":
        column = np.array(draw(st.lists(st.booleans(), min_size=n_rows,
                                        max_size=n_rows)), dtype=bool)
    else:
        # arbitrary bytes reach every bit pattern (signalling NaNs too);
        # the known-fragile values are injected on top
        dtype = np.dtype(kind)
        size = n_rows * dtype.itemsize
        column = np.frombuffer(
            draw(st.binary(min_size=size, max_size=size)), dtype=dtype
        ).copy()
        specials = special_values(dtype)
        for at in draw(st.lists(st.integers(0, max(n_rows - 1, 0)),
                                max_size=4 if n_rows else 0)):
            column[at] = specials[
                draw(st.integers(0, len(specials) - 1))]
    layout = draw(st.sampled_from(
        ("native", "big-endian", "strided", "read-only")))
    if layout == "big-endian":
        column = column.astype(column.dtype.newbyteorder(">"))
    elif layout == "strided":
        column = np.repeat(column, 2)[::2]
    elif layout == "read-only":
        column.setflags(write=False)
    return column


@st.composite
def wire_table(draw):
    n_rows = draw(st.sampled_from((0, 1, 2, 7, 64)))
    n_cols = draw(st.integers(1, 5))
    return Table({f"c{i}": draw(wire_column(n_rows)) for i in range(n_cols)})


@pytest.fixture()
def service(dataset):
    svc = QueryService(dataset, ServiceConfig(max_inflight=2, max_queue=2,
                                              tenant_inflight=2, workers=2))
    yield svc
    svc.close()


class TestQueryFlow:
    def test_miss_then_hit_identical(self, service):
        async def main():
            q = Query(t_begin=0.0, t_end=900.0)
            cold = await service.query(q)
            warm = await service.query(q)
            return cold, warm

        cold, warm = run(main())
        assert (cold["status"], cold["cache"]) == ("ok", "miss")
        assert cold["shards"]["pruned"] > 0
        assert (warm["status"], warm["cache"]) == ("ok", "hit")
        assert warm["table"] == cold["table"]
        assert (service.stats.cache_hits, service.stats.ok) == (1, 2)

    def test_identical_burst_executes_once(self, service):
        async def main():
            q = Query(t_begin=0.0, t_end=1200.0, width=20.0)
            return await asyncio.gather(
                *[service.query(q, tenant=f"t{i}") for i in range(6)]
            )

        results = run(main())
        kinds = Counter(r["cache"] for r in results)
        assert kinds == {"miss": 1, "shared": 5}
        assert len({id(r["table"]) for r in results}) == 1
        assert service.stats.executed == 1

    def test_malformed_query_is_error_response(self, service):
        resp = run(service.query({"level": "warp"}))
        assert resp["status"] == "error"
        assert "warp" in resp["error"]
        resp = run(service.query({"no_such_knob": 1}))
        assert resp["status"] == "error"

    def test_unanswerable_query_is_error_response(self, service):
        resp = run(service.query(Query(metrics=("flux_capacitor",))))
        assert resp["status"] == "error"
        assert "flux_capacitor" in resp["error"]

    def test_overload_rejects_instead_of_hanging(self, dataset):
        svc = QueryService(dataset, ServiceConfig(max_inflight=1, max_queue=1,
                                                  tenant_inflight=1,
                                                  workers=1))
        try:
            async def main():
                queries = [Query(t_begin=0.0, t_end=1500.0, width=w)
                           for w in DIVISORS_OF_SHARD]
                return await asyncio.gather(
                    *[svc.query(q, tenant=f"t{i}")
                      for i, q in enumerate(queries)]
                )

            results = run(main())
        finally:
            svc.close()
        by_status = Counter(r["status"] for r in results)
        # deterministic: decisions happen synchronously on the loop before
        # any await, so of 8 distinct offered queries exactly 1 runs,
        # 1 queues, 6 are rejected
        assert by_status == {"ok": 2, "rejected": 6}
        queued = [r for r in results if r["status"] == "ok"
                  and r["queued_s"] > 0.0]
        assert len(queued) == 1
        for r in results:
            if r["status"] == "rejected":
                assert "capacity" in r["reason"] or "quota" in r["reason"]

    def test_tenant_quota_enforced(self, dataset):
        svc = QueryService(dataset, ServiceConfig(max_inflight=4, max_queue=8,
                                                  tenant_inflight=1,
                                                  workers=1))
        try:
            async def main():
                queries = [Query(t_begin=0.0, t_end=600.0, width=w)
                           for w in DIVISORS_OF_SHARD[:3]]
                return await asyncio.gather(
                    *[svc.query(q, tenant="greedy") for q in queries]
                )

            results = run(main())
        finally:
            svc.close()
        by_status = Counter(r["status"] for r in results)
        assert by_status == {"ok": 1, "rejected": 2}
        snap = svc.snapshot()
        assert snap["rejected_quota"] == 2
        assert snap["tenants"]["greedy"]["rejected"] == 2

    def test_snapshot_shape(self, service):
        run(service.query(Query(t_begin=0.0, t_end=300.0)))
        snap = service.snapshot()
        assert snap["ok"] == 1
        assert snap["result_cache"]["entries"] == 1
        assert snap["dataset"]["partitions"] == service.dataset.n_partitions
        assert "default" in snap["tenants"]
        assert "queries" in service.report()


class TestWorkerPool:
    """The shard-task pool: one thread per core by default, and a count
    below 1 fails where it is configured, naming the field."""

    @pytest.mark.parametrize("workers", [0, -3])
    def test_count_below_one_names_the_field(self, workers):
        with pytest.raises(ValueError,
                           match=f"^workers must be >= 1, got {workers}$"):
            ServiceConfig(workers=workers)

    def test_default_is_one_thread_per_core(self, dataset, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        svc = QueryService(dataset)
        try:
            assert svc._pool._max_workers == default_workers() == (
                cap_workers(os.cpu_count())) == 4
        finally:
            svc.close()


class TestFlightAccounting:
    """Every caller of an identical query is counted once, in its tenant
    and in the service totals, whether it led the flight or followed it."""

    def _service(self, dataset, monkeypatch, **kw):
        cfg = dict(max_inflight=8, max_queue=8, tenant_inflight=4, workers=2)
        cfg.update(kw)
        svc = QueryService(dataset, ServiceConfig(**cfg))
        real_admit = svc.admission.admit
        admits = []

        async def admit_after_yield(tenant):
            # a refusal is otherwise decided before the leader ever yields,
            # so nobody could follow it: yield once to let followers join
            admits.append(tenant)
            await asyncio.sleep(0)
            return await real_admit(tenant)

        monkeypatch.setattr(svc.admission, "admit", admit_after_yield)
        return svc, admits

    def _gather(self, svc, calls):
        async def main():
            return await asyncio.gather(
                *[svc.query(q, tenant=t) for q, t in calls])

        try:
            return run(main())
        finally:
            svc.close()

    def _check_totals(self, snap, tenant_queries):
        assert snap["queries"] == snap["ok"] + snap["rejected"] + snap["errors"]
        assert snap["queries"] == sum(tenant_queries.values())
        assert {name: t["queries"] for name, t in snap["tenants"].items()} \
            == tenant_queries

    def test_rejected_leader_counts_every_follower(self, dataset, monkeypatch):
        svc, admits = self._service(dataset, monkeypatch, tenant_inflight=1)
        hold = Query(t_begin=0.0, t_end=1500.0, width=30.0)
        shared = Query(t_begin=0.0, t_end=1500.0, width=60.0)
        followers = ["t1", "t2", "t3"]
        results = self._gather(
            svc, [(hold, "greedy"), (shared, "greedy")]
            + [(shared, t) for t in followers])
        assert [r["status"] for r in results] == ["ok"] + ["rejected"] * 4
        assert all("quota" in r["reason"] for r in results[1:])
        assert admits == ["greedy", "greedy"]  # the followers never admit
        snap = svc.snapshot()
        assert snap["rejected"] == 4 and snap["rejected_quota"] == 1
        assert snap["rejected_capacity"] == 0
        for name in ["greedy", *followers]:
            assert snap["tenants"][name]["rejected"] == 1
        assert snap["tenants"]["greedy"]["ok"] == 1
        self._check_totals(snap, {"greedy": 2, "t1": 1, "t2": 1, "t3": 1})

    def test_failed_leader_counts_every_follower(self, dataset, monkeypatch):
        svc, admits = self._service(dataset, monkeypatch)
        straddles = Query(t_begin=0.0, t_end=1500.0, width=7.0)
        tenants = ["lead", "f1", "f2", "f3"]
        results = self._gather(svc, [(straddles, t) for t in tenants])
        assert [r["status"] for r in results] == ["error"] * 4
        assert all("width 7" in r["error"] for r in results)
        assert admits == ["lead"]
        snap = svc.snapshot()
        assert snap["errors"] == 4 and snap["rejected"] == 0
        assert snap["ok"] == 0 and snap["executed"] == 0
        self._check_totals(snap, dict.fromkeys(tenants, 1))

    def test_successful_leader_shares_with_followers(
        self, dataset, monkeypatch
    ):
        svc, admits = self._service(dataset, monkeypatch)
        q = Query(t_begin=0.0, t_end=1200.0, width=20.0)
        tenants = [f"t{i}" for i in range(6)]
        results = self._gather(svc, [(q, t) for t in tenants])
        assert Counter(r["cache"] for r in results) == {"miss": 1, "shared": 5}
        assert admits == ["t0"]
        snap = svc.snapshot()
        assert snap["executed"] == 1 and snap["cache_shared"] == 5
        assert snap["ok"] == 6 and snap["rejected"] == snap["errors"] == 0
        assert all(snap["tenants"][t]["ok"] == 1 for t in tenants)
        self._check_totals(snap, dict.fromkeys(tenants, 1))


class TestWireTables:
    def test_round_trip_bit_identical(self):
        t = Table({
            "timestamp": np.arange(5, dtype=np.float64) * 0.1,
            "node": np.arange(5, dtype=np.int64),
            "power": np.array([1.5, np.pi, -0.0, 1e300, 5e-324]),
        })
        back = table_from_wire(table_to_wire(t))
        assert back == t
        for c in t.columns:
            assert back[c].dtype == t[c].dtype

    def test_wire_form_is_plain_json_types(self):
        import json

        t = Table({"v": np.array([1.0, 2.5])})
        encoded = json.dumps(table_to_wire(t))
        assert table_from_wire(json.loads(encoded)) == t

    @settings(max_examples=150, deadline=None)
    @given(table=wire_table())
    def test_every_bit_of_every_dtype_survives_strict_json(self, table):
        line = json.dumps(table_to_wire(table), allow_nan=False)
        back = table_from_wire(strict_loads(line))
        assert back.columns == table.columns
        assert back.n_rows == table.n_rows
        for name in table.columns:
            sent, got = table[name], back[name]
            if sent.dtype.kind == "U":
                assert got.dtype == sent.dtype
            else:
                assert got.dtype.isnative
                assert got.dtype == sent.dtype.newbyteorder("=")
            assert bits(got) == bits(sent), name

    def test_numeric_kinds_are_packed_little_endian_strings_are_lists(self):
        wire = table_to_wire(Table({
            "t": np.array([0.5, np.nan]),
            "big": np.array([1, -2], dtype=">i4"),
            "flag": np.array([True, False]),
            "host": np.array(["a1", "b22"]),
        }))
        assert wire["dtypes"] == {"t": "<f8", "big": "<i4", "flag": "|b1",
                                  "host": "<U3"}
        assert wire["columns"] == {
            "t": "AAAAAAAA4D8AAAAAAAD4fw==",
            "big": "AQAAAP7///8=",
            "flag": "AQA=",
            "host": ["a1", "b22"],
        }
        empty = table_to_wire(Table({"v": np.empty(0, dtype=np.float32)}))
        assert empty == {"dtypes": {"v": "<f4"}, "columns": {"v": ""}}
        assert table_from_wire(empty)["v"].dtype == np.float32

    def test_list_form_of_older_servers_still_decodes(self):
        legacy = {
            "dtypes": {"timestamp": "float64", "node": "int64",
                       "power": "float64", "host": "<U2"},
            "columns": {"timestamp": [0.0, 0.1, 0.2], "node": [0, 1, 2],
                        "power": [1.5, 3.141592653589793, -0.0],
                        "host": ["a1", "b2", "c3"]},
        }
        expected = Table({
            "timestamp": np.array([0.0, 0.1, 0.2]),
            "node": np.arange(3, dtype=np.int64),
            "power": np.array([1.5, np.pi, -0.0]),
            "host": np.array(["a1", "b2", "c3"]),
        })
        back = table_from_wire(json.loads(json.dumps(legacy)))
        assert back.columns == expected.columns
        for name in expected.columns:
            assert back[name].dtype == expected[name].dtype
            assert bits(back[name]) == bits(expected[name])

    def test_big_endian_payload_decodes_to_native_values(self):
        sent = np.array([1.5, -2.25], dtype=">f8")
        back = table_from_wire({
            "dtypes": {"v": ">f8"},
            "columns": {"v": base64.b64encode(sent.tobytes()).decode()},
        })
        assert back["v"].dtype.isnative
        assert back["v"].tolist() == [1.5, -2.25]


class TestTCP:
    def test_query_stats_ping_over_socket(self, service):
        async def main():
            server = TelemetryServer(service)
            host, port = await server.start()
            out = {}

            def client_side():
                with QueryClient(host, port, tenant="remote") as c:
                    assert c.ping()
                    out["cold"] = c.query(Query(t_begin=0.0, t_end=600.0))
                    out["warm"] = c.query(Query(t_begin=0.0, t_end=600.0))
                    out["bad"] = c.query({"level": "warp"})
                    out["stats"] = c.stats()

            worker = threading.Thread(target=client_side)
            worker.start()
            while worker.is_alive():
                await asyncio.sleep(0.02)
            worker.join()
            await server.stop()
            return out

        out = run(main())
        assert (out["cold"]["status"], out["cold"]["cache"]) == ("ok", "miss")
        assert (out["warm"]["status"], out["warm"]["cache"]) == ("ok", "hit")
        assert out["warm"]["table"] == out["cold"]["table"]
        assert out["bad"]["status"] == "error"
        assert out["stats"]["ok"] == 2
        assert out["stats"]["tenants"]["remote"]["queries"] == 3

    def test_wire_result_matches_in_process(self, service):
        async def main():
            q = Query(t_begin=0.0, t_end=900.0, derived="pue")
            local = await service.query(q)
            server = TelemetryServer(service)
            host, port = await server.start()
            out = {}

            def client_side():
                with QueryClient(host, port) as c:
                    out["resp"] = c.query(q)

            worker = threading.Thread(target=client_side)
            worker.start()
            while worker.is_alive():
                await asyncio.sleep(0.02)
            worker.join()
            await server.stop()
            return local, out["resp"]

        local, remote = run(main())
        assert remote["cache"] == "hit"
        assert remote["table"] == local["table"]

    def test_large_results_encode_off_loop(self, dataset, monkeypatch):
        """Big result tables must be wire-encoded on the worker pool, not
        the event loop — and byte-identically to the inline path."""
        def serve_once(svc):
            async def main():
                server = TelemetryServer(svc)
                host, port = await server.start()
                out = {}

                def client_side():
                    with QueryClient(host, port) as c:
                        out["resp"] = c.query(
                            Query(t_begin=0.0, t_end=900.0, level="node")
                        )

                worker = threading.Thread(target=client_side)
                worker.start()
                while worker.is_alive():
                    await asyncio.sleep(0.02)
                worker.join()
                await server.stop()
                return out["resp"]

            try:
                return run(main())
            finally:
                svc.close()

        offloaded = QueryService(dataset, ServiceConfig(workers=2))
        inline = QueryService(dataset, ServiceConfig(workers=2))
        monkeypatch.setattr(OFFLOAD_AT, 1)
        a = serve_once(offloaded)
        monkeypatch.setattr(OFFLOAD_AT, 1 << 30)
        b = serve_once(inline)
        assert offloaded.stats.encode_offloads > 0
        assert inline.stats.encode_offloads == 0
        assert a["status"] == b["status"] == "ok"
        assert a["table"] == b["table"]

    def test_fresh_server_stats_line_is_strict_json(self, service):
        """Before the first answer there is no latency to take a quantile
        of; the line must say so in JSON (null), not as a bare NaN."""
        (line,) = exchange(service, [{"op": "stats"}])
        stats = strict_loads(line)["stats"]
        assert stats["queries"] == 0
        assert stats["p50_ms"] is None and stats["p99_ms"] is None

    @pytest.fixture()
    def gappy(self, telemetry, tmp_path):
        """A two-shard archive whose ``input_power`` has loss gaps: NaN
        (one with payload bits set), both infinities and a ``-0.0``."""
        keep = (telemetry["node"] < 3) & (telemetry["timestamp"] < 600.0)
        table = Table({c: np.array(telemetry[c][keep])
                       for c in telemetry.columns})
        power = table["input_power"]
        power[5:9] = np.nan
        power[9:10].view(np.uint64)[:] = 0x7FF8000000000001
        power[400], power[401], power[402] = np.inf, -np.inf, -0.0
        return write_partitioned_series(table, tmp_path, "gappy",
                                        day_s=SHARD_S)

    def test_raw_answer_over_loss_gaps_is_strict_and_bit_exact(self, gappy):
        q = Query(level="raw", metrics=("input_power",))
        expected = plan_query(q, gappy).execute()
        power = expected["input_power"]
        assert np.isnan(power).sum() == 5 and np.isinf(power).sum() == 2
        assert 0x7FF8000000000001 in power.view(np.uint64)

        svc = QueryService(gappy, ServiceConfig(workers=2))
        try:
            (line,) = exchange(svc, [{"op": "query", "query": q.to_dict()}])
        finally:
            svc.close()
        resp = strict_loads(line)
        assert resp["status"] == "ok" and resp["rows"] == expected.n_rows
        got = table_from_wire(resp["table"])
        assert got.columns == expected.columns
        for name in expected.columns:
            assert got[name].dtype == expected[name].dtype
            assert bits(got[name]) == bits(expected[name]), name

    def test_offloaded_and_inline_lines_are_byte_identical(
        self, gappy, monkeypatch
    ):
        request = {"op": "query", "query": {"level": "raw"}}
        lines = []
        for offload_at in (1, 1 << 30):
            monkeypatch.setattr(OFFLOAD_AT, offload_at)
            svc = QueryService(gappy, ServiceConfig(workers=2))
            try:
                lines.extend(exchange(svc, [request]))
            finally:
                svc.close()
            assert svc.stats.encode_offloads == (offload_at == 1)
        masked = [re.sub(rb'"(elapsed_s|queued_s)":[^,}]+', rb'"\1":0', line)
                  for line in lines]
        assert masked[0] == masked[1]
        assert strict_loads(lines[0])["rows"] > 0

    @pytest.mark.parametrize("unencodable", [float("nan"), {1, 2}])
    def test_unencodable_response_is_an_error_line_not_a_dropped_socket(
        self, service, monkeypatch, unencodable
    ):
        monkeypatch.setattr(service, "snapshot",
                            lambda: {"value": unencodable})
        first, second = exchange(service, [{"op": "stats"}, {"op": "ping"}])
        answer = strict_loads(first)
        assert answer["status"] == "error"
        assert "could not be encoded" in answer["error"]
        assert strict_loads(second) == {"status": "ok", "op": "ping"}
        assert service.stats.errors == 1

    def test_internal_error_is_an_error_line_not_a_dropped_socket(
        self, service, monkeypatch
    ):
        """An exception out of the service — here the merge — answers the
        request with one ``internal error`` line, counts it, and leaves the
        connection serving."""
        def broken(plan, tables):
            raise KeyError("timestamp")

        monkeypatch.setattr(QueryPlan, "finalize", broken)
        query = Query(t_begin=0.0, t_end=300.0).to_dict()
        first, second = exchange(service, [{"op": "query", "query": query},
                                           {"op": "ping"}])
        assert strict_loads(first) == {
            "status": "error",
            "error": "internal error: KeyError: 'timestamp'",
        }
        assert strict_loads(second) == {"status": "ok", "op": "ping"}
        assert service.stats.errors == 1

    def test_tenant_table_is_bounded(self, service):
        """A client cycling tenant names meets one rejection past the
        table's bound, keeps its connection, and cannot grow ``stats``."""
        query = Query(t_begin=0.0, t_end=300.0, width=60.0).to_dict()
        names = [f"t{i}" for i in range(MAX_TENANTS + 1)] + ["t0"]
        lines = exchange(service, [
            {"op": "query", "query": query, "tenant": name} for name in names
        ] + [{"op": "ping"}, {"op": "stats"}])
        *answers, ping, stats = [strict_loads(line) for line in lines]
        assert Counter(a["status"] for a in answers) == {
            "ok": MAX_TENANTS + 1, "rejected": 1}
        assert answers[-2] == {
            "status": "rejected",
            "reason": f"tenant table full ({MAX_TENANTS} tenants)",
        }
        assert answers[-1]["status"] == "ok"  # a known tenant still served
        assert ping == {"status": "ok", "op": "ping"}
        snap = stats["stats"]
        assert len(snap["tenants"]) == MAX_TENANTS
        assert snap["rejected"] == snap["rejected_capacity"] == 1
        assert snap["queries"] == len(names)

    def test_bad_json_line_is_error_not_disconnect(self, service):
        async def main():
            server = TelemetryServer(service)
            host, port = await server.start()
            out = {}

            def client_side():
                with QueryClient(host, port) as c:
                    c._file.write(b"{not json\n")
                    c._file.flush()
                    import json

                    out["err"] = json.loads(c._file.readline())
                    out["after"] = c.ping()

            worker = threading.Thread(target=client_side)
            worker.start()
            while worker.is_alive():
                await asyncio.sleep(0.02)
            worker.join()
            await server.stop()
            return out

        out = run(main())
        assert out["err"]["status"] == "error"
        assert out["after"] is True

    def test_over_long_line_is_error_then_close(self, service):
        import json
        import socket

        async def main():
            server = TelemetryServer(service)
            host, port = await server.start()
            out = {}

            def client_side():
                with socket.create_connection((host, port), timeout=30) as sk:
                    sk.sendall(b"x" * (MAX_REQUEST_BYTES + 1) + b"\n")
                    with sk.makefile("rb") as f:
                        out["err"] = json.loads(f.readline())
                        try:
                            out["eof"] = f.readline()
                        except ConnectionResetError:
                            # closed before reading our trailing newline
                            out["eof"] = b""
                with QueryClient(host, port) as c:
                    out["after"] = c.ping()

            worker = threading.Thread(target=client_side)
            worker.start()
            while worker.is_alive():
                await asyncio.sleep(0.02)
            worker.join()
            await server.stop()
            return out

        out = run(main())
        assert out["err"] == {
            "status": "error",
            "error": f"request line exceeds {MAX_REQUEST_BYTES} bytes",
        }
        assert out["eof"] == b""  # the server closed the connection
        assert service.stats.errors == 1
        assert out["after"] is True

    #: (request line, errors the service must count for it): a request that
    #: never reaches the service (bad envelope) moves no counter
    MALFORMED = [
        (b"{not json", 0),
        (b"[1, 2]", 0),
        (b'{"op": "explode"}', 0),
        (b'{"op": "query", "query": [1]}', 1),
        (b'{"op": "query", "tenant": ["a"]}', 1),
        (b'{"op": "query", "tenant": 7}', 1),
        (b'{"op": "query", "tenant": "%s"}' % (b"t" * (MAX_TENANT_NAME + 1)),
         1),
        (b'{"query": {"width": "inf"}}', 1),
        (b'{"query": {"width": "nan"}}', 1),
        (b'{"query": {"pue_overhead": "nan", "derived": "pue"}}', 1),
        # the archive's time and node columns are not the client's to name
        (b'{"query": {"time": "node"}}', 1),
        (b'{"query": {"by": "timestamp"}}', 1),
        (b'{"query": {"t_begin": "nan"}}', 1),
        (b'{"query": {"t_end": "nan"}}', 1),
        # hostile numbers: ids past int64 (alone or as a cabinet's nodes),
        # a width past int64, a fraction or a bool posing as a node id
        (b'{"query": {"nodes": [1e19]}}', 1),
        (b'{"query": {"nodes": [Infinity]}}', 1),
        (b'{"query": {"cabinets": [1000000000000000000]}}', 1),
        (b'{"query": {"width": 1e308}}', 1),
        (b'{"query": {"nodes": [1.5]}}', 1),
        (b'{"query": {"nodes": [true]}}', 1),
        # a 7 s window straddles the archive's 300 s shard edges
        (b'{"query": {"width": 7}}', 1),
        # the one case that ends the connection (the stream is misaligned)
        (b"x" * (MAX_REQUEST_BYTES + 1), 1),
    ]

    def test_malformed_requests_get_one_error_each(self, service):
        import json
        import socket

        async def main():
            server = TelemetryServer(service)
            host, port = await server.start()
            seen = []

            def client_side():
                for line, _ in self.MALFORMED:
                    before = service.stats.errors
                    with socket.create_connection(
                        (host, port), timeout=30
                    ) as sk, sk.makefile("rwb") as f:
                        f.write(line + b"\n")
                        f.flush()
                        first = json.loads(f.readline())
                        try:
                            # whatever follows the error on this connection
                            # is the answer to the ping, or end of stream
                            f.write(b'{"op": "ping"}\n')
                            f.flush()
                            second = f.readline()
                        except (ConnectionResetError, BrokenPipeError):
                            second = b""
                    seen.append(
                        (first, second, service.stats.errors - before)
                    )
                with QueryClient(host, port) as c:
                    seen.append(c.query(Query(t_begin=0.0, t_end=600.0)))

            worker = threading.Thread(target=client_side)
            worker.start()
            while worker.is_alive():
                await asyncio.sleep(0.02)
            worker.join()
            await server.stop()
            return seen

        *answers, after = run(main())
        assert len(answers) == len(self.MALFORMED)
        for (line, counted), (first, second, errors) in zip(
            self.MALFORMED, answers
        ):
            case = line[:60]
            assert first["status"] == "error" and first["error"], case
            assert errors == counted, case
            if len(line) > MAX_REQUEST_BYTES:
                assert second == b"", case
            else:
                assert json.loads(second) == {"status": "ok", "op": "ping"}, case
        assert "width 7" in answers[-2][0]["error"]
        assert after["status"] == "ok" and after["rows"] > 0
