"""The query service and its TCP front end.

:class:`QueryService` is the in-process engine: one event loop accepting
declarative :class:`~repro.plan.Query` objects, answering them from
the :class:`~repro.serve.cache.ResultCache`, collapsing identical
concurrent queries through :class:`~repro.serve.cache.SingleFlight`, and
executing cache misses by fanning the plan's shard tasks out over a
thread pool (shard reads release the GIL in numpy/mmap, so threads give
real overlap without process-spawn cost).

:class:`TelemetryServer` exposes the service over TCP with a
newline-delimited-JSON protocol: each request line is
``{"op": "query"|"stats"|"ping", ...}``; each response line is one JSON
object with a ``status`` of ``ok``, ``rejected``, or ``error``, and every
line is strict JSON (no bare ``NaN``/``Infinity`` tokens).  Result tables
travel as ``{"dtypes": {col: dtype}, "columns": {col: payload}}`` where a
numeric or bool column's payload is one base64 string of its little-endian
buffer and a string column's is a list (see :func:`table_to_wire`).
"""

from __future__ import annotations

import asyncio
import base64
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.frame.table import Table
from repro.obs import trace
from repro.obs.events import NdjsonLog
from repro.parallel.executor import default_workers
from repro.parallel.partition import PartitionedDataset
from repro.plan import Query, QueryError, QueryPlan, ShardTask, plan_query
from repro.serve.cache import ResultCache, SingleFlight
from repro.serve.session import MAX_TENANT_NAME, Admission, RejectedError
from repro.serve.stats import ServiceStats

__all__ = [
    "ServiceConfig",
    "QueryService",
    "TelemetryServer",
    "table_to_wire",
    "table_from_wire",
]

#: longest request line a connection may send; a longer one gets an error
#: response and the connection is closed
MAX_REQUEST_BYTES = 64 << 10

#: result-table size at which the TCP layer moves wire conversion and
#: NDJSON encoding off the event loop onto the worker pool
ENCODE_OFFLOAD_MIN_BYTES = 32 << 10

#: dtype kinds that travel packed (bool, signed, unsigned, float); every
#: other kind travels as a JSON list
_PACKED_KINDS = "biuf"


def table_to_wire(table: Table) -> dict:
    """JSON-safe form of a table (dtype strings + one payload per column).

    A bool, integer or float column travels as one base64 string of its
    C-contiguous little-endian buffer, and ``dtypes`` names that layout
    explicitly (``"<f8"``, ``"<i8"``, ``"|b1"``): every bit survives —
    NaN payloads, ``-0.0``, subnormals, int64 extremes — and NaN/inf never
    reach the JSON encoder.  Any other kind (strings) travels as a list
    of its elements.  Zero rows pack as ``""``.  To eyeball a column:
    ``np.frombuffer(base64.b64decode(s), "<f8")``.
    """
    dtypes: dict[str, str] = {}
    columns: dict[str, object] = {}
    for name in table.columns:
        arr = table[name]
        if arr.dtype.kind in _PACKED_KINDS:
            wire = arr.dtype.newbyteorder("<")
            # a column may be big-endian, strided or a read-only map of
            # an .rcs file; b64encode only needs contiguous bytes
            arr = np.ascontiguousarray(arr, dtype=wire)
            dtypes[name] = wire.str
            columns[name] = base64.b64encode(arr).decode("ascii")
        else:
            dtypes[name] = str(arr.dtype)
            columns[name] = arr.tolist()
    return {"dtypes": dtypes, "columns": columns}


def _column_from_wire(payload: object, dtype: object) -> np.ndarray:
    """One column from its wire payload (``binascii.Error`` is a
    ``ValueError``; numpy adds ``TypeError`` and ``OverflowError``)."""
    if isinstance(payload, list):
        if dtype is not None and np.dtype(dtype).kind in "OV":
            raise ValueError(f"dtype {dtype!r} is not a column dtype")
        return np.asarray(payload, dtype=dtype)
    if not isinstance(payload, str):
        raise ValueError(
            "payload must be a base64 string or a list, got "
            f"{type(payload).__name__}"
        )
    if not isinstance(dtype, str):
        raise ValueError("a packed column needs a dtype string")
    dt = np.dtype(dtype)
    if dt.kind not in _PACKED_KINDS:
        raise ValueError(f"dtype {dtype!r} cannot travel packed")
    buf = base64.b64decode(payload, validate=True)
    if len(buf) % dt.itemsize:
        raise ValueError(
            f"{len(buf)} bytes is not a whole number of {dtype!r} elements"
        )
    arr = np.frombuffer(buf, dtype=dt)
    return arr if dt.isnative else arr.astype(dt.newbyteorder("="))


def table_from_wire(raw: dict) -> Table:
    """Rebuild a :class:`~repro.frame.table.Table` from its wire form.

    Dispatches on the JSON type of each column payload: a string is a
    packed buffer (see :func:`table_to_wire`), a list is the elements —
    which is also the only form servers before the packed encoding sent.
    Packed columns come back as read-only native-order views over the
    decoded bytes.  A malformed payload raises ``ValueError`` naming the
    column; nothing numpy or ``binascii`` raises gets through unnamed.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"table must be an object, got {type(raw).__name__}")
    columns = raw.get("columns")
    dtypes = raw.get("dtypes", {})
    if not isinstance(columns, dict) or not isinstance(dtypes, dict):
        raise ValueError("'columns' and 'dtypes' must be objects")
    decoded = {}
    for name, payload in columns.items():
        try:
            decoded[name] = _column_from_wire(payload, dtypes.get(name))
        except (ValueError, TypeError, OverflowError) as err:
            raise ValueError(f"column {name!r}: {err}") from err
    return Table(decoded)  # names the column too if lengths are ragged


@dataclass(frozen=True)
class ServiceConfig:
    """Service knobs (admission bounds, cache byte caps, worker pool).

    ``workers`` (at least 1; default one per core,
    :func:`~repro.parallel.executor.default_workers`) sizes the shard-task
    pool, the read path's one level of parallelism.

    ``slow_query_log`` names an NDJSON file; every query whose total
    latency reaches ``slow_query_s`` (0.0 = log all) appends one line
    carrying its fingerprint, cache outcome, coverage mix, fragment
    hit/miss breakdown, and per-shard task timings.  ``slow_query_s``
    must be finite and non-negative: the ``stats`` answer reports it,
    and that answer is strict JSON.
    """

    max_inflight: int = 8
    max_queue: int = 16
    tenant_inflight: int = 4
    cache_bytes: int = 64 << 20
    fragment_bytes: int = 128 << 20
    workers: int | None = None
    slow_query_s: float = 0.0
    slow_query_log: str | os.PathLike | None = None

    def __post_init__(self):
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if not 0.0 <= self.slow_query_s < math.inf:
            raise ValueError(
                "slow_query_s must be finite and >= 0, got "
                f"{self.slow_query_s!r}"
            )


class QueryService:
    """Async multi-tenant query engine over one partitioned dataset.

    Per query, in order: result-cache lookup (``cache: "hit"``),
    single-flight follow (``"shared"``), admission control, then plan +
    fan-out execution (``"miss"``).  Hits and followers bypass admission
    entirely — they cost no worker, so capacity stays reserved for
    queries that actually scan shards.

    Cold execution fans the plan's per-shard tasks out concurrently over
    the worker pool and routes fragment-eligible tasks through the
    fragment :class:`~repro.serve.cache.ResultCache`: a query overlapping
    previously-computed shards reuses their full-shard aggregates (or
    grid-aligned slices of them) and only computes the uncovered
    remainder, with per-fragment single-flight so concurrent overlapping
    queries compute each distinct shard exactly once between them.
    Answers are bit-identical to ``plan_query(q, dataset).execute()``,
    which never touches the cache.
    """

    def __init__(
        self,
        dataset: PartitionedDataset | str | os.PathLike,
        config: ServiceConfig | None = None,
    ):
        if not isinstance(dataset, PartitionedDataset):
            dataset = PartitionedDataset(dataset)
        self.dataset = dataset
        self.config = config or ServiceConfig()
        self.cache = ResultCache(self.config.cache_bytes)
        self.fragments = ResultCache(self.config.fragment_bytes)
        #: per-fragment single-flight: concurrent queries needing the same
        #: uncached fragment compute it once and share the result
        self.fragment_flight = SingleFlight()
        self.flight = SingleFlight()
        self.admission = Admission(
            max_inflight=self.config.max_inflight,
            max_queue=self.config.max_queue,
            tenant_inflight=self.config.tenant_inflight,
        )
        self.stats = ServiceStats()
        workers = self.config.workers
        if workers is None:
            workers = default_workers()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve"
        )
        self.slow_log = (
            NdjsonLog(self.config.slow_query_log)
            if self.config.slow_query_log is not None
            else None
        )

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def _in_pool(self, name: str, fn, *args, **attrs):
        """Run ``fn(*args)`` on the worker pool inside a span.

        ``loop.run_in_executor`` does not carry contextvars onto pool
        threads, so the active span's context is captured here and the
        pool-side span re-parents under it explicitly.  With tracing off
        this degrades to a bare ``run_in_executor``.
        """
        loop = asyncio.get_running_loop()
        ctx = trace.current_context()
        if ctx is None:
            return loop.run_in_executor(self._pool, fn, *args)

        def run():
            with trace.span(name, _parent=ctx, **attrs):
                return fn(*args)

        return loop.run_in_executor(self._pool, run)

    # ---------------- the query path ----------------

    async def query(self, query: Query | dict, tenant: str = "default") -> dict:
        """Answer one query; always returns a response dict, never raises
        for malformed/rejected queries.

        The response's ``table`` value is a live
        :class:`~repro.frame.table.Table` (the TCP layer converts it with
        :func:`table_to_wire` before serialization).
        """
        with trace.span("serve.query", tenant=tenant) as qsp:
            return await self._query(query, tenant, qsp)

    async def _query(self, query: Query | dict, tenant: str, qsp) -> dict:
        t0 = time.perf_counter()
        # straight off the wire: an unhashable tenant would raise out of
        # the tenant table and drop the connection
        if not isinstance(tenant, str):
            return self._error(qsp, "tenant must be a string, got "
                                    f"{type(tenant).__name__}")
        if len(tenant) > MAX_TENANT_NAME:
            return self._error(qsp, "tenant name exceeds "
                                    f"{MAX_TENANT_NAME} characters")
        try:
            st = self.admission.tenant(tenant)
        except RejectedError as err:
            return self._rejected(qsp, err)
        st.queries += 1
        try:
            if not isinstance(query, Query):
                query = Query.from_dict(query)  # rejects a non-object
            query.validate()
            key = query.fingerprint()
        except QueryError as err:
            return self._error(qsp, str(err))
        qsp.set(level=query.level, fingerprint=key)

        cached = self.cache.get(key)
        if cached is not None:
            qsp.set(cache="hit")
            return self._ok(query, key, tenant, cached, "hit", t0, 0.0)

        async def execute() -> tuple[Table, dict, float]:
            # runs once per flight: admission's verdict (and any execution
            # failure) reaches every caller sharing it
            with trace.span("serve.admit"):
                queued_s = await self.admission.admit(tenant)
            try:
                e0 = time.perf_counter()
                plan = plan_query(query, self.dataset)
                frag = {"hits": 0, "shared": 0, "misses": 0,
                        "full": 0, "aligned": 0, "partial": 0}
                task_log: list[dict] = []
                # fan the plan's tasks out concurrently; gather preserves
                # task order, so the merge is deterministic regardless of
                # which shard finishes first
                parts = await asyncio.gather(
                    *(self._run_task(plan, t, frag, task_log)
                      for t in plan.tasks())
                )
                table = await self._in_pool(
                    "serve.merge", plan.finalize, list(parts)
                )
                exec_s = time.perf_counter() - e0
            finally:
                self.admission.release(tenant)
            meta = {
                "scanned": len(plan.shards),
                "pruned": plan.n_shards_pruned,
                "exec_s": exec_s,
                "fragments": frag,
                "tasks": task_log,
            }
            # stored before the flight resolves: whoever asks next finds
            # either the flight or the cache entry
            self.cache.put(key, table)
            return table, meta, queued_s

        try:
            (table, meta, queued_s), led = await self.flight.run(key, execute)
        except RejectedError as err:
            st.rejected += 1
            return self._rejected(qsp, err)
        except QueryError as err:
            return self._error(qsp, str(err))
        if not led:
            qsp.set(cache="shared")
            return self._ok(query, key, tenant, table, "shared", t0, 0.0, meta)
        qsp.set(cache="miss", shards=meta["scanned"])
        return self._ok(query, key, tenant, table, "miss", t0, queued_s, meta)

    def _error(self, qsp, error: str) -> dict:
        self.stats.record_error()
        qsp.set(status="error")
        return {"status": "error", "error": error}

    def _rejected(self, qsp, err: RejectedError) -> dict:
        self.stats.record_rejected()
        qsp.set(status="rejected")
        return {"status": "rejected", "reason": err.reason}

    async def _run_task(
        self, plan: QueryPlan, task: ShardTask, frag: dict,
        task_log: list[dict],
    ) -> Table:
        """Execute one shard task, going through the fragment cache when
        the task is fragment-eligible (``full``/``aligned`` coverage).

        The cache lookup and the flight registration happen synchronously
        on the event loop, so concurrent queries can never both compute
        one fragment: the first becomes its leader, the rest await the
        leader's future (fragment-level single-flight, across *different*
        queries).  Fragment keys carry the shard's generation identity, so
        a post-``compact()`` shard can never be served a stale fragment.
        """
        t0 = time.perf_counter()
        if task.coverage != "raw":
            frag[task.coverage] += 1
        key = task.fragment_key
        with trace.span("serve.task", shard=task.index,
                        coverage=task.coverage) as sp:
            if key is None:  # partial / raw: no fragment can stand in
                table = await self._in_pool(
                    "serve.task.exec", plan.run_task, task, shard=task.index
                )
                source = "direct"
            else:
                table = self.fragments.get(key)
                if table is not None:
                    frag["hits"] += 1
                    source = "hit"
                else:
                    async def compute() -> Table:
                        fragment = await self._in_pool(
                            "serve.task.exec", plan.run_fragment, task.index,
                            shard=task.index,
                        )
                        # stored before the flight resolves: whoever asks
                        # next finds either the flight or the cache entry
                        self.fragments.put(key, fragment)
                        return fragment

                    table, led = await self.fragment_flight.run(key, compute)
                    source = "miss" if led else "shared"
                    frag["misses" if led else "shared"] += 1
                if task.coverage == "aligned":
                    table = plan.slice_fragment(table, task.lo, task.hi)
            sp.set(source=source)
        task_log.append({
            "shard": task.index,
            "coverage": task.coverage,
            "source": source,
            "s": round(time.perf_counter() - t0, 6),
        })
        return table

    def _ok(
        self,
        query: Query,
        key: str,
        tenant: str,
        table: Table,
        cache: str,
        t0: float,
        queued_s: float,
        meta: dict | None = None,
    ) -> dict:
        elapsed = time.perf_counter() - t0
        st = self.admission.tenant(tenant)
        st.ok += 1
        st.rows_served += table.n_rows
        st.wall_s += elapsed
        if cache == "hit":
            st.cache_hits += 1
        # a miss or a shared answer carries its flight's meta; a hit none
        executed = cache == "miss"
        fragments = meta["fragments"] if meta else None
        if executed:
            st.shards_scanned += meta["scanned"]
            st.frag_hits += fragments["hits"] + fragments["shared"]
        self.stats.record_ok(
            cache=cache,
            rows=table.n_rows,
            elapsed_s=elapsed,
            shards_scanned=meta["scanned"] if executed else 0,
            shards_pruned=meta["pruned"] if executed else 0,
            executed_s=meta["exec_s"] if executed else None,
            fragments=fragments if executed else None,
        )
        resp = {
            "status": "ok",
            "cache": cache,
            "level": query.level,
            "rows": table.n_rows,
            "elapsed_s": round(elapsed, 6),
            "queued_s": round(queued_s, 6),
            "table": table,
        }
        if meta is not None:
            resp["shards"] = {"scanned": meta["scanned"],
                              "pruned": meta["pruned"]}
            resp["fragments"] = dict(fragments)
        if (
            self.slow_log is not None
            and elapsed >= self.config.slow_query_s
        ):
            self.slow_log.emit(
                "slow_query",
                fingerprint=key,
                tenant=tenant,
                cache=cache,
                level=query.level,
                rows=table.n_rows,
                elapsed_s=round(elapsed, 6),
                queued_s=round(queued_s, 6),
                exec_s=round(meta["exec_s"], 6) if executed else None,
                shards=(
                    {"scanned": meta["scanned"], "pruned": meta["pruned"]}
                    if executed else None
                ),
                fragments=dict(fragments) if fragments else None,
                tasks=meta["tasks"] if executed else None,
            )
        return resp

    def snapshot(self) -> dict:
        """Counters for the ``stats`` op (includes both caches)."""
        out = self.stats.snapshot(self.admission)
        for name, cache in (("result_cache", self.cache),
                            ("fragment_cache", self.fragments)):
            out[name] = {
                "entries": cache.n_entries,
                "bytes": cache.n_bytes,
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
            }
        out["dataset"] = {
            "name": self.dataset.name,
            "partitions": self.dataset.n_partitions,
            "rows": self.dataset.n_rows,
        }
        out["obs"] = {
            "tracing": trace.is_enabled(),
            "trace_file": trace.trace_path(),
            "slow_query_s": self.config.slow_query_s,
            "slow_query_log": (
                None if self.slow_log is None else self.slow_log.path
            ),
            "slow_queries": (
                0 if self.slow_log is None else self.slow_log.written
            ),
        }
        return out

    def report(self) -> str:
        return self.stats.report(self.admission)


class TelemetryServer:
    """Newline-delimited-JSON TCP front end over a :class:`QueryService`.

    One request per line; responses come back in request order per
    connection (concurrency comes from concurrent connections).  Ops:

    * ``{"op": "query", "query": {...}, "tenant": "name"}``
    * ``{"op": "stats"}``
    * ``{"op": "ping"}``

    A request line longer than :data:`MAX_REQUEST_BYTES` is answered with
    an ``error`` response, counted in ``errors``, and ends the connection.
    An exception raised while answering a request is an ``internal
    error`` response, also counted in ``errors``; the connection stays.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # the reader dropped what it had buffered of the line,
                    # so the stream cannot be re-aligned: answer, close
                    self.service.stats.record_error()
                    writer.write(self._encode({
                        "status": "error",
                        "error": f"request line exceeds "
                                 f"{MAX_REQUEST_BYTES} bytes",
                    }))
                    await writer.drain()
                    break
                if not line:
                    break
                payload = await self._respond(line)
                writer.write(payload)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(self, line: bytes) -> bytes:
        """Dispatch one request line and return its encoded response.

        When the request envelope carries a ``trace`` context (a client
        with tracing on), the whole server side — accept, admission,
        plan, shard fan-out, merge, encode — hangs under a
        ``serve.request`` span parented to the client's span, so one
        trace file tells the full cross-process story.
        """
        try:
            req = json.loads(line)
        except json.JSONDecodeError as err:
            return self._encode(
                {"status": "error", "error": f"bad JSON request: {err}"}
            )
        if not isinstance(req, dict):
            return self._encode(
                {"status": "error", "error": "request must be an object"}
            )
        op = req.get("op", "query")
        raw_ctx = req.get("trace")
        ctx = (
            trace.SpanContext.from_dict(raw_ctx)
            if isinstance(raw_ctx, dict) else None
        )
        with trace.span("serve.request", _parent=ctx, op=op) as sp:
            try:
                resp = await self._dispatch_op(op, req)
            except Exception as err:
                # a fault inside the service: the client gets one answer
                # and keeps its connection, and the fault is counted
                self.service.stats.record_error()
                resp = {
                    "status": "error",
                    "error": f"internal error: {type(err).__name__}: {err}",
                }
            sp.set(status=resp.get("status"))
            table = resp.get("table")
            try:
                if (
                    isinstance(table, Table)
                    and table.nbytes() >= ENCODE_OFFLOAD_MIN_BYTES
                ):
                    # big results: wire conversion + JSON encoding would
                    # stall the event loop for milliseconds per response
                    # (convoying every other connection) — do it on the
                    # worker pool instead
                    self.service.stats.record_offload()
                    payload = await self.service._in_pool(
                        "serve.encode", self._encode, resp, offloaded=True
                    )
                else:
                    with trace.span("serve.encode", offloaded=False):
                        payload = self._encode(resp)
            except (TypeError, ValueError) as err:
                # a value JSON cannot carry (NaN/inf outside a packed
                # column, a foreign object): the client gets an answer
                # and keeps its connection, not a dropped socket
                self.service.stats.record_error()
                sp.set(status="error")
                payload = self._encode({
                    "status": "error",
                    "error": f"response could not be encoded: {err}",
                })
        return payload

    async def _dispatch_op(self, op: str, req: dict) -> dict:
        if op == "ping":
            return {"status": "ok", "op": "ping"}
        if op == "stats":
            return {"status": "ok", "op": "stats",
                    "stats": self.service.snapshot()}
        if op == "query":
            # the table stays live here; _respond's encode step (possibly
            # on the worker pool) converts it to wire form
            return await self.service.query(
                req.get("query") or {}, tenant=req.get("tenant", "default")
            )
        return {"status": "error", "error": f"unknown op {op!r}"}

    @staticmethod
    def _encode(resp: dict) -> bytes:
        """One strict-JSON response line (wire-converts a live table first);
        raises ``ValueError`` for NaN/inf, ``TypeError`` for a foreign type."""
        table = resp.get("table")
        if isinstance(table, Table):
            resp = dict(resp)
            resp["table"] = table_to_wire(table)
        return json.dumps(
            resp, separators=(",", ":"), allow_nan=False
        ).encode() + b"\n"
