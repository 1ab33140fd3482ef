"""Cross-query result reuse: in-memory LRU + single-flight deduplication.

:class:`ResultCache` keys tables by a content hash and holds them in
memory under a byte cap with least-recently-used eviction.  The service
keeps two: one of finished results keyed by the query's canonical
fingerprint (:meth:`repro.plan.Query.fingerprint` — the same
content-addressing scheme as the pipeline's
:class:`~repro.pipeline.cache.ArtifactCache`), and one of per-shard
partial aggregates (*fragments*) keyed by
:meth:`~repro.plan.QueryPlan.fragment_key`, so queries that
merely *overlap* — different fingerprints, shared shards — reuse each
other's shard work and only compute the uncovered remainder.  Neither
outlives the service: a fingerprint does not name the dataset it was
answered from.

:class:`SingleFlight` collapses N identical concurrent queries into one
execution: the first caller becomes the *leader* and runs the work; every
other caller awaits the leader's future and shares its result.  Combined
with the caches this gives the service its headline property — a stampede
of identical queries costs one shard scan, and a stampede of overlapping
ones costs one scan per distinct shard.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from collections.abc import Awaitable, Callable

from repro.frame.table import Table

__all__ = ["ResultCache", "SingleFlight"]


class ResultCache:
    """Byte-capped in-memory LRU of tables keyed by content hash.

    ``max_bytes`` bounds the cache (eviction never rejects a put: the
    newest entry stays even if it alone exceeds the cap).
    """

    def __init__(self, max_bytes: int = 64 << 20):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[str, Table] = OrderedDict()
        self._bytes: dict[str, int] = {}
        self.n_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __repr__(self) -> str:
        return (
            f"ResultCache(entries={self.n_entries}, bytes={self.n_bytes}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )

    @property
    def n_entries(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Table | None:
        """The cached table (refreshing its recency), or None."""
        table = self._entries.get(key)
        if table is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return table
        self.misses += 1
        return None

    def put(self, key: str, table: Table) -> None:
        """Insert a table, evicting least-recently-used entries over the
        byte cap."""
        if key in self._entries:
            self.n_bytes -= self._bytes.pop(key)
            del self._entries[key]
        size = table.nbytes()
        self._entries[key] = table
        self._bytes[key] = size
        self.n_bytes += size
        while self.n_bytes > self.max_bytes and len(self._entries) > 1:
            old_key, _ = self._entries.popitem(last=False)
            self.n_bytes -= self._bytes.pop(old_key)
            self.evictions += 1

    def clear(self) -> int:
        """Drop every entry (the counters are kept)."""
        n = len(self._entries)
        self._entries.clear()
        self._bytes.clear()
        self.n_bytes = 0
        return n


class SingleFlight:
    """Per-key deduplication of concurrent async work.

    ``run(key, fn)`` executes ``fn`` once per key at a time: the leader
    runs it, followers await the same future.  Failures propagate to the
    whole flight (every waiter sees the leader's exception) and the key
    is released either way, so a later retry starts a fresh flight.

    Leadership is decided synchronously on the event loop (no await
    between the check and the registration), so two coroutines can never
    both lead one key.
    """

    def __init__(self):
        self._flights: dict[str, asyncio.Future] = {}

    async def run(self, key: str, fn: Callable[[], Awaitable]):
        """(result, led): lead ``key``'s flight by awaiting ``fn()``, or
        follow the flight already running under ``key``."""
        fut = self._flights.get(key)
        if fut is not None:
            return await asyncio.shield(fut), False
        fut = self._flights[key] = asyncio.get_running_loop().create_future()
        try:
            value = await fn()
        except BaseException as err:
            fut.set_exception(err)
            fut.exception()  # mark retrieved: a flight may have no followers
            raise
        finally:
            del self._flights[key]
        fut.set_result(value)
        return value, True
