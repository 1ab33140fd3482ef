"""Synchronous TCP client for :class:`~repro.serve.server.TelemetryServer`.

One persistent connection, one JSON line per request/response.  Result
tables arrive in wire form and are rebuilt into
:class:`~repro.frame.table.Table` objects, so a client-side result
compares equal (``==``, bit-for-bit) to the server-side one.
Numeric columns of a rebuilt table are read-only views over the decoded
bytes; ``np.array(col)`` when one has to be written to.
"""

from __future__ import annotations

import json
import socket

from repro.obs import trace
from repro.plan import Query
from repro.serve.server import table_from_wire

__all__ = ["QueryClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The connection failed mid-request (protocol error, server gone),
    the response carried a table that does not decode, or a ``stats``
    request was answered with an error."""


class QueryClient:
    """Blocking NDJSON client; usable as a context manager."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        tenant: str = "default",
        timeout: float = 60.0,
    ):
        self.tenant = tenant
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def request(self, payload: dict) -> dict:
        """Send one raw request object, return the raw response object."""
        self._file.write(
            json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        )
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceError("server closed the connection")
        try:
            return json.loads(line)
        except json.JSONDecodeError as err:
            raise ServiceError(f"bad response line: {err}") from err

    def query(self, query: Query | dict) -> dict:
        """Run one query; the response's ``table`` is a rebuilt
        :class:`~repro.frame.table.Table`.

        A table that does not decode, or whose length is not the
        response's ``rows``, raises :class:`ServiceError` naming the
        column.

        With tracing enabled, the round trip is a ``client.query`` span
        whose context rides the request envelope — the server re-parents
        its whole handling under it, so a shared trace file captures the
        cross-process request tree.
        """
        if isinstance(query, Query):
            query = query.to_dict()
        payload = {"op": "query", "query": query, "tenant": self.tenant}
        with trace.span("client.query", tenant=self.tenant) as sp:
            ctx = sp.context
            if ctx is not None:
                payload["trace"] = ctx.to_dict()
            resp = self.request(payload)
            sp.set(status=resp.get("status"),
                   cache=resp.get("cache"), rows=resp.get("rows"))
        if "table" in resp:
            try:
                table = table_from_wire(resp["table"])
            except ValueError as err:
                raise ServiceError(f"bad response table: {err}") from err
            if table.n_rows != resp.get("rows"):
                raise ServiceError(
                    f"bad response table: {table.n_rows} rows decoded, "
                    f"the response says rows={resp.get('rows')!r}"
                )
            resp["table"] = table
        return resp

    def stats(self) -> dict:
        resp = self.request({"op": "stats"})
        if "stats" not in resp:  # an error answer
            raise ServiceError(f"stats: {resp.get('error')}")
        return resp["stats"]

    def ping(self) -> bool:
        return self.request({"op": "ping"}).get("status") == "ok"
