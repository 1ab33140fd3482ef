"""Multi-tenant sessions, quotas, and admission control.

The service degrades *explicitly* under overload instead of collapsing:
every query is admitted, queued, or rejected before any work happens.

* a global **in-flight bound** (``max_inflight``) caps concurrently
  executing queries — the worker pool behind it stays busy but never
  oversubscribed;
* a bounded **wait queue** (``max_queue``) absorbs short bursts; a query
  that waited reports its queue time, so clients can observe pressure;
* a **per-tenant quota** (``tenant_inflight``) bounds how much of the
  service any one tenant can hold (running + queued), so a greedy tenant
  degrades itself, not its neighbours;
* the **tenant table** holds at most :data:`MAX_TENANTS` names, so a
  client cycling names cannot grow it (or the ``stats`` answer that lists
  it) without bound.

Beyond both bounds the query is rejected immediately with a reason —
``REJECTED`` is a fast, cheap answer; a hung socket is not.  Cache hits
and single-flight followers bypass admission entirely: they cost no
worker, so capacity is reserved for queries that actually execute.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

__all__ = ["TenantState", "Admission", "RejectedError"]

#: distinct tenants one service tracks; a new name past this is rejected
MAX_TENANTS = 1024

#: longest tenant name a query may carry (a longer one is an error)
MAX_TENANT_NAME = 128


class RejectedError(Exception):
    """Admission refused this query; ``reason`` is sent to the client."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class TenantState:
    """Per-tenant accounting (admission keeps ``held`` and ``queued``;
    the service counts outcomes; stats reads the rest)."""

    name: str
    held: int = 0           # running + queued right now
    queries: int = 0
    ok: int = 0
    rejected: int = 0
    queued: int = 0
    cache_hits: int = 0
    frag_hits: int = 0      # fragments served from cache or a shared flight
    shards_scanned: int = 0
    rows_served: int = 0
    wall_s: float = 0.0


@dataclass
class Admission:
    """Bounded-concurrency admission with per-tenant quotas.

    All state transitions happen synchronously on the event loop (the
    only await is the queue wait), so checks can never race.
    """

    max_inflight: int = 8
    max_queue: int = 16
    tenant_inflight: int = 4
    running: int = 0
    waiting: int = 0
    rejected_capacity: int = 0
    rejected_quota: int = 0
    tenants: dict[str, TenantState] = field(default_factory=dict)
    _wakeup: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.tenant_inflight < 1:
            raise ValueError("tenant_inflight must be >= 1")

    def tenant(self, name: str) -> TenantState:
        """The accounting for ``name``, created on first sight; raises
        :class:`RejectedError` for a new name once the table is full."""
        st = self.tenants.get(name)
        if st is None:
            if len(self.tenants) >= MAX_TENANTS:
                self.rejected_capacity += 1
                raise RejectedError(
                    f"tenant table full ({MAX_TENANTS} tenants)")
            st = self.tenants[name] = TenantState(name)
        return st

    async def admit(self, tenant: str) -> float:
        """Admit one query for ``tenant``; returns seconds spent queued
        (0.0 when a slot was free).  Raises :class:`RejectedError` when
        the tenant is over quota or the service is saturated.  The caller
        **must** pair a successful admit with :meth:`release`.
        """
        st = self.tenant(tenant)
        if st.held >= self.tenant_inflight:
            self.rejected_quota += 1
            raise RejectedError(
                f"tenant {tenant!r} over quota "
                f"({st.held}/{self.tenant_inflight} in flight)"
            )
        if self.running >= self.max_inflight and self.waiting >= self.max_queue:
            self.rejected_capacity += 1
            raise RejectedError(
                f"server at capacity ({self.running} running, "
                f"{self.waiting} queued)"
            )
        st.held += 1
        # queue-waiters first: a fresh arrival never jumps the line
        if self.running < self.max_inflight and self.waiting == 0:
            self.running += 1
            return 0.0
        self.waiting += 1
        st.queued += 1
        t0 = time.perf_counter()
        try:
            while self.running >= self.max_inflight:
                self._wakeup.clear()
                await self._wakeup.wait()
        except BaseException:
            self.waiting -= 1
            st.held -= 1
            raise
        self.waiting -= 1
        self.running += 1
        return time.perf_counter() - t0

    def release(self, tenant: str) -> None:
        """Return one admitted query's slot and wake a queued waiter."""
        st = self.tenant(tenant)
        st.held -= 1
        self.running -= 1
        self._wakeup.set()
