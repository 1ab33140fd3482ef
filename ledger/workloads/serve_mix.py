"""``serve_mix``: cold scans and dashboard polls against a served archive.

The archive is served by ``python -m repro serve`` as a *child process*;
the bench is a closed-loop client.  A block has two parts with separate
metrics:

* **scan** — 16 distinct cluster-level queries on one connection, one
  slot each.  Slot ``j`` has a fixed span, width, node count and shard
  alignment; the seed picks its start inside the first minute of that
  alignment and which nodes it selects.  Block ``k`` rotates every node
  id by ``k``, so no result or fragment key ever repeats while every
  block reads exactly the same shards and rows: both caches are bypassed.
* **dash** — polls over 8 sliding panels from two connections, the panel
  window advancing per block: the first poll of a panel is a result miss
  that reuses fragments, the rest are result-cache hits.  A slot is ten
  consecutive polls, averaged over the two connections.

A cache or wire change must move one part and not the other.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from repro.datasets import write_partitioned_series
from repro.obs import span, trace
from repro.parallel import PartitionedDataset
from repro.serve import (Query, QueryClient, ResultCache, ServiceError,
                         plan_query, table_from_wire, table_to_wire)

from ledger.harness import RUN_LIMIT_S, SRC, child_hwm_kb, nearest_rank
from ledger.layers import per, storage_metrics
from ledger.workloads import Workload, compact_pairs, twin_telemetry

N_SCANS = 16
#: nodes each scan slot selects, of 72 (scaled down with ``--quick``)
SCAN_NODES = (4, 8, 12, 16, 20, 24, 6, 10, 14, 18, 22, 5, 9, 13, 17, 21)
N_PANELS = 8
DASH_CLIENTS = 2
DASH_SLOTS = 25
#: every VERIFY_EVERY-th response is checked against an in-process plan
VERIFY_EVERY = 20
IO_TIMEOUT_S = 30.0


class ServeMix(Workload):
    name = "serve_mix"
    clients: list = []
    server = None

    def build(self, r: int) -> None:
        if self.quick:
            nodes, shard_s, self.polls = 24, 60.0, 50
        else:
            nodes, shard_s, self.polls = 72, 300.0, 250
        self.n_nodes = nodes
        #: a compacted shard is two partitions wide; every window below
        #: is laid out in these units so that all seeds touch the same
        #: number of shards
        unit = 2 * shard_s
        horizon = 10 * unit
        self.advance_s = shard_s / 10
        self.units = (float(N_SCANS), float(DASH_CLIENTS * self.polls))
        _, telemetry = twin_telemetry(self, nodes, horizon, per_gpu=False)
        with self.step("archive"):
            ds = write_partitioned_series(
                telemetry, self.work / f"build-{r}", "telemetry",
                day_s=shard_s,
            )
            compact_pairs(ds, nodes, shard_s)
            self.dataset = PartitionedDataset(ds.root)

        rng = np.random.default_rng([self.seed, 0x5E12])
        spans_s = (1.5 * unit, 3 * unit, 6 * unit)
        self.scan_templates = [
            (
                # off every coarsen grid, so edge shards are "partial"
                # tasks the fragment cache never serves
                unit * (j % 4) + float(rng.integers(0, 60)) + 0.37,
                spans_s[j % 3],
                (10.0, 30.0, 60.0)[(j // 3) % 3],
                rng.choice(nodes, size=SCAN_NODES[j] * nodes // 72,
                           replace=False),
            )
            for j in range(N_SCANS)
        ]
        self.panel_s = 3 * unit
        group = nodes // N_PANELS
        self.panel_nodes = [tuple(range(p * group, (p + 1) * group))
                            for p in range(N_PANELS)]
        self.max_blocks = int(min(
            nodes - 1, (horizon - self.panel_s) / self.advance_s))

        self.clients: list[QueryClient] = []
        self.server: subprocess.Popen | None = None
        self.references: dict[str, object] = {}
        self.traced_samples: dict[str, list] = {"scan": [], "dash": []}
        self.traced_scan_blocks: list[list[float]] = []
        self.part_stats: dict[str, list[dict]] = {"scan": [], "dash": []}
        with self.step("server"):
            self._start_server()

    # ---------------- server child ----------------

    def _start_server(self) -> None:
        ready = self.dataset.root.parent / "ready"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop("REPRO_TRACE", None)
        self.server_log = open(self.work / "server.log", "ab")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(self.dataset.root),
             "--ready-file", str(ready)],
            env=env, stdout=self.server_log, stderr=subprocess.STDOUT,
        )
        self.dog.watch_child(self.server)
        deadline = time.monotonic() + IO_TIMEOUT_S
        while True:
            if ready.exists():
                fields = ready.read_text().split()
                if len(fields) == 2:
                    break
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.server.returncode} before "
                    f"it was ready: {self._server_tail()}")
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"server not ready after {IO_TIMEOUT_S:.0f} s: "
                    f"{self._server_tail()}")
            time.sleep(0.01)
        host, port = fields[0], int(fields[1])
        for i in range(1 + DASH_CLIENTS):
            self.clients.append(QueryClient(
                host, port, tenant=f"ledger{i}", timeout=IO_TIMEOUT_S))

    def _server_tail(self) -> str:
        try:
            return (self.work / "server.log").read_text()[-500:]
        except OSError:
            return ""

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        self.clients = []
        server, self.server = self.server, None
        if server is None:
            return
        try:
            if server.poll() is None:
                self.child_kb = child_hwm_kb(server.pid)
                server.send_signal(signal.SIGINT)
                try:
                    server.wait(10)
                except subprocess.TimeoutExpired:
                    server.kill()
                    server.wait(10)
        finally:
            self.server_log.close()

    # ---------------- queries ----------------

    def scan_queries(self, k: int) -> list[Query]:
        return [
            Query(t_begin=start, t_end=start + length, width=width,
                  nodes=tuple(int(n) for n in (nodes + k) % self.n_nodes))
            for start, length, width, nodes in self.scan_templates
        ]

    def panel_queries(self, k: int) -> list[Query]:
        t0 = k * self.advance_s
        return [Query(t_begin=t0, t_end=t0 + self.panel_s, width=10.0,
                      nodes=nodes) for nodes in self.panel_nodes]

    def _ask(self, client: QueryClient, query: Query, what: str):
        """One timed round trip; a non-``ok`` answer is a failed
        operation, a dead connection is one too and ends the run."""
        t0 = time.perf_counter()
        try:
            resp = client.query(query)
        except (OSError, ServiceError) as err:
            self.op(False, f"{what}: {type(err).__name__}: {err}")
            raise
        latency = time.perf_counter() - t0
        self.op(resp.get("status") == "ok",
                f"{what}: {resp.get('status')} "
                f"{resp.get('reason') or resp.get('error') or ''}")
        return latency, resp

    def _verify(self, query: Query, resp: dict, what: str) -> None:
        key = query.fingerprint()
        if key not in self.references:
            self.references[key] = plan_query(query, self.dataset).execute()
        self.op(resp.get("table") == self.references[key],
                f"{what}: response != in-process plan_query().execute()")

    # ---------------- one block ----------------

    def block(self, k: int) -> tuple[list[float], list[float]]:
        traced = trace.is_enabled()
        scan_client, dash_clients = self.clients[0], self.clients[1:]
        before = scan_client.stats() if traced else None

        scans = self.scan_queries(k)
        answers = [self._ask(scan_client, q, f"scan {j}")
                   for j, q in enumerate(scans)]
        for j, (_, resp) in enumerate(answers):
            self.op(resp.get("cache") == "miss",
                    f"scan {j}: answered from a cache ({resp.get('cache')})")
        middle = scan_client.stats() if traced else None

        panels = self.panel_queries(k)
        polled: list[list] = [[] for _ in dash_clients]
        errors: list[BaseException] = []
        gate = threading.Barrier(len(dash_clients) + 1)

        def poll(slot: int) -> None:
            try:
                gate.wait(IO_TIMEOUT_S)
                offset = slot * (N_PANELS // DASH_CLIENTS)
                for i in range(self.polls):
                    p = (i + offset) % N_PANELS
                    latency, resp = self._ask(dash_clients[slot], panels[p],
                                              f"dash panel {p}")
                    keep = (i + k) % VERIFY_EVERY == 0
                    polled[slot].append((latency, resp["elapsed_s"], p,
                                         resp if keep else None))
            except BaseException as err:  # re-raised on the main thread
                errors.append(err)
                gate.abort()

        threads = [threading.Thread(target=poll, args=(slot,))
                   for slot in range(len(dash_clients))]
        for th in threads:
            th.start()
        try:
            gate.wait(IO_TIMEOUT_S)
        except threading.BrokenBarrierError:
            pass
        for th in threads:
            th.join(RUN_LIMIT_S)
        if errors:
            raise errors[0]
        if any(th.is_alive() for th in threads):
            raise TimeoutError("dash pollers did not finish")
        # slot c: the c-th run of polls, averaged over the connections
        chunk = self.polls // DASH_SLOTS
        dash_slots = [
            statistics.fmean(
                sum(poll[0] for poll in one[c * chunk:(c + 1) * chunk])
                for one in polled)
            for c in range(DASH_SLOTS)
        ]

        with span("ledger:checks"):
            j = (k * 7) % N_SCANS  # a different scan slot every block
            self._verify(scans[j], answers[j][1], f"scan {j}")
            for slot_polls in polled:
                for _, _, p, resp in slot_polls:
                    if resp is not None:
                        self._verify(panels[p], resp, f"dash panel {p}")
            if traced:
                after = scan_client.stats()
                self.part_stats["scan"].append(_delta(before, middle))
                self.part_stats["dash"].append(_delta(middle, after))
                self.rejected = after["rejected"]
                self.traced_scan_blocks.append([lat for lat, _ in answers])
                self.traced_samples["scan"] += [
                    (lat, resp["elapsed_s"]) for lat, resp in answers]
                self.traced_samples["dash"] += [
                    poll[:2] for slot_polls in polled for poll in slot_polls]
        return [lat for lat, _ in answers], dash_slots

    # ---------------- traced pass ----------------

    def probe(self, record) -> None:
        client = self.clients[0]
        rtts = []
        for _ in range(200):
            t0 = time.perf_counter()
            self.op(client.ping(), "ping")
            rtts.append(time.perf_counter() - t0)
        self.ping_rtt_us = statistics.median(rtts) * 1e6

        # the server's planning and shard work, replayed in this process
        # under the layer recording (the child cannot be wrapped)
        tables = []
        self.tasks_per_query = 0.0
        with record():
            for query in self.scan_queries(0):
                with span("serve.planner:plan_query"):
                    plan = plan_query(query, self.dataset)
                tasks = plan.tasks()
                self.tasks_per_query += len(tasks) / N_SCANS
                parts = []
                for task in tasks:
                    with span("serve.planner:run_task"):
                        parts.append(plan.run_task(task))
                with span("serve.planner:finalize"):
                    tables.append(plan.finalize(parts))

        cache = ResultCache()
        n = 2_000
        t0 = time.perf_counter()
        for i in range(n):
            cache.put(f"key{i}", tables[i % len(tables)])
        self.cache_put_us = (time.perf_counter() - t0) / n * 1e6
        t0 = time.perf_counter()
        for i in range(n):
            cache.get(f"key{i}")
        self.cache_get_us = (time.perf_counter() - t0) / n * 1e6

        enc_s = dec_s = 0.0
        wire_mb = 0.0
        for _ in range(5):
            for table in tables:
                resp = {"status": "ok", "cache": "miss", "level": "cluster",
                        "rows": table.n_rows, "elapsed_s": 0.0,
                        "queued_s": 0.0}
                t0 = time.perf_counter()
                resp["table"] = table_to_wire(table)
                line = json.dumps(resp, separators=(",", ":")).encode()
                t1 = time.perf_counter()
                table_from_wire(json.loads(line)["table"])
                t2 = time.perf_counter()
                enc_s += t1 - t0
                dec_s += t2 - t1
                wire_mb += len(line) / 1e6
        self.encode_ms_per_mb = enc_s / wire_mb * 1e3
        self.decode_ms_per_mb = dec_s / wire_mb * 1e3

    def layer_metrics(self, spans) -> dict[str, float]:
        def ratio(part: str, hit_keys, all_keys) -> float:
            hits = sum(d[k] for d in self.part_stats[part] for k in hit_keys)
            total = sum(d[k] for d in self.part_stats[part] for k in all_keys)
            return per(hits, total)

        frag_hit = ("frag_hits", "frag_shared")
        frag_all = frag_hit + ("frag_misses",)
        samples = self.traced_samples["scan"] + self.traced_samples["dash"]
        wire_share = 1.0 - per(sum(e for _, e in samples),
                               sum(lat for lat, _ in samples))
        dash_ms = [lat * 1e3 for lat, _ in self.traced_samples["dash"]]

        def call(name: str, scale: float) -> float:
            full = f"serve.planner:{name}"
            return per(spans.total(full), spans.count(full), scale)

        return {
            **storage_metrics(spans),
            "serve.planner.plan_us": call("plan_query", 1e6),
            "serve.planner.tasks_per_query": self.tasks_per_query,
            "serve.planner.rows_per_query": spans.total(
                "core:coarsen", "rows",
                under="serve.planner:run_task") / N_SCANS,
            "serve.planner.shard_task_ms": call("run_task", 1e3),
            "serve.planner.finalize_ms": call("finalize", 1e3),
            "serve.cache.result_hit_ratio":
                ratio("dash", ("cache_hits",), ("queries",)),
            "serve.cache.fragment_hit_ratio": ratio("dash", frag_hit,
                                                    frag_all),
            "serve.cache.scan_result_hit_ratio":
                ratio("scan", ("cache_hits",), ("queries",)),
            "serve.cache.scan_fragment_hit_ratio": ratio("scan", frag_hit,
                                                         frag_all),
            "serve.cache.get_us": self.cache_get_us,
            "serve.cache.put_us": self.cache_put_us,
            "serve.server.encode_ms_per_mb": self.encode_ms_per_mb,
            "serve.client.decode_ms_per_mb": self.decode_ms_per_mb,
            "serve.server.ping_rtt_us": self.ping_rtt_us,
            "serve.server.wire_share": wire_share,
            "serve.server.rejected": float(self.rejected),
            "serve.scan_p50_ms": statistics.median(
                statistics.median(b) for b in self.traced_scan_blocks) * 1e3,
            "serve.scan_p90_ms": statistics.median(
                nearest_rank(b, 0.9) for b in self.traced_scan_blocks) * 1e3,
            "serve.dash_p50_ms": statistics.median(dash_ms),
            "serve.dash_p99_ms": nearest_rank(dash_ms, 0.99),
            # the server's work happens in the child: what the client
            # cannot see inside is everything but the server's own clock
            "ledger.unattributed_share": wire_share,
        }


def _delta(a: dict, b: dict) -> dict:
    return {k: b[k] - a[k] for k in
            ("queries", "cache_hits", "frag_hits", "frag_shared",
             "frag_misses")}
