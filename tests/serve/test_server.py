"""End-to-end service behavior: cache tiers, single-flight sharing,
explicit overload rejection, and the TCP wire protocol."""

import asyncio
import threading
from collections import Counter

import numpy as np
import pytest

from repro.frame.table import Table
from repro.serve import (
    Query,
    QueryClient,
    QueryService,
    ServiceConfig,
    TelemetryServer,
    table_from_wire,
    table_to_wire,
)
from repro.serve.server import MAX_REQUEST_BYTES


#: distinct widths that make queries distinct *and* answerable: each
#: divides the archive's 300 s shards, so no coarsen window straddles one
DIVISORS_OF_SHARD = (10.0, 12.0, 15.0, 20.0, 25.0, 30.0, 50.0, 60.0)


def run(coro):
    return asyncio.run(coro)


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
        assert service.stats.cache_hit_ratio == 0.5

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

    def test_large_results_encode_off_loop(self, dataset):
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

        offloaded = QueryService(dataset, ServiceConfig(
            workers=2, encode_offload_bytes=1,
        ))
        inline = QueryService(dataset, ServiceConfig(
            workers=2, encode_offload_bytes=1 << 30,
        ))
        a = serve_once(offloaded)
        b = serve_once(inline)
        assert offloaded.stats.encode_offloads > 0
        assert inline.stats.encode_offloads == 0
        assert a["status"] == b["status"] == "ok"
        assert a["table"] == b["table"]

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
        (b'{"query": {"width": "inf"}}', 1),
        (b'{"query": {"width": "nan"}}', 1),
        (b'{"query": {"pue_overhead": "nan", "derived": "pue"}}', 1),
        (b'{"query": {"t_begin": "nan"}}', 1),
        (b'{"query": {"t_end": "nan"}}', 1),
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
