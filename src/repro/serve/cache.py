"""Cross-query result reuse: in-memory LRU + single-flight deduplication.

:class:`ResultCache` keys finished result tables by the query's canonical
fingerprint (:meth:`repro.serve.query.Query.fingerprint` — the same
content-addressing scheme as the pipeline's
:class:`~repro.pipeline.cache.ArtifactCache`), holds them in memory under
a byte cap with least-recently-used eviction, and can optionally *spill*
through an ``ArtifactCache`` so evicted results survive on disk — written
with the same :func:`~repro.pipeline.cache.atomic_put_npz` helper, so a
concurrent reader can never observe a torn entry.

:class:`FragmentCache` is the same LRU one level down: it keys per-shard
partial aggregates (*fragments*) instead of finished queries, so queries
that merely *overlap* — different fingerprints, shared shards — reuse
each other's shard work and only compute the uncovered remainder.

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
from repro.pipeline.cache import ArtifactCache

__all__ = ["ResultCache", "FragmentCache", "SingleFlight"]


class ResultCache:
    """Byte-capped LRU table cache keyed by query fingerprint.

    ``max_bytes`` bounds the in-memory tier (eviction never rejects a
    put: the newest entry stays even if it alone exceeds the cap, exactly
    like :class:`~repro.pipeline.cache.ArtifactCache`).  ``spill`` is an
    optional on-disk second tier: puts are written through atomically,
    in-memory misses consult it and promote hits back into memory.
    """

    def __init__(
        self,
        max_bytes: int = 64 << 20,
        spill: ArtifactCache | None = None,
    ):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.spill = spill
        self._entries: OrderedDict[str, Table] = OrderedDict()
        self._bytes: dict[str, int] = {}
        self.n_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.spill_hits = 0

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
        """The cached result (refreshing its recency), or None."""
        table = self._entries.get(key)
        if table is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return table
        if self.spill is not None:
            table = self.spill.get(key)
            if table is not None:
                self.hits += 1
                self.spill_hits += 1
                self._insert(key, table)  # promote back into memory
                return table
        self.misses += 1
        return None

    def put(self, key: str, table: Table) -> None:
        """Insert a finished result (write-through to the spill tier)."""
        if self.spill is not None:
            self.spill.put(key, table)
        self._insert(key, table)

    def _insert(self, key: str, table: Table) -> None:
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
        """Drop every in-memory entry (the spill tier is left alone)."""
        n = len(self._entries)
        self._entries.clear()
        self._bytes.clear()
        self.n_bytes = 0
        return n


class FragmentCache(ResultCache):
    """Byte-capped LRU of per-shard *fragments* — full-shard partial
    aggregates keyed by :meth:`repro.serve.planner.QueryPlan.fragment_key`
    (shard generation identity + kernel parameters).

    Mechanically a :class:`ResultCache` (same LRU, byte cap, and
    counters), but it caches *below* the query level: two queries with
    different time ranges share every fragment of the shards they both
    cover, so an overlapping query only computes its uncovered remainder.
    Fragments are tiny (a few coarsen windows per shard), so the default
    cap holds thousands of shard-kernels.  Never spilled: a fragment is
    cheaper to recompute than a full query, and the disk tier belongs to
    finished results.
    """

    def __init__(self, max_bytes: int = 128 << 20):
        super().__init__(max_bytes)


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

    @property
    def n_inflight(self) -> int:
        return len(self._flights)

    def leader(self, key: str) -> bool:
        """True if the caller just became leader for ``key`` (it must then
        call :meth:`resolve` or :meth:`fail` exactly once)."""
        if key in self._flights:
            return False
        self._flights[key] = asyncio.get_running_loop().create_future()
        return True

    async def wait(self, key: str):
        """Await the in-flight result for ``key`` (follower path)."""
        return await asyncio.shield(self._flights[key])

    def resolve(self, key: str, value) -> None:
        fut = self._flights.pop(key)
        if not fut.done():
            fut.set_result(value)

    def fail(self, key: str, err: BaseException) -> None:
        fut = self._flights.pop(key)
        if not fut.done():
            fut.set_exception(err)
            fut.exception()  # mark retrieved: a flight may have no followers

    async def run(self, key: str, fn: Callable[[], Awaitable]):
        """(result, led) — convenience wrapper over leader/wait/resolve."""
        if not self.leader(key):
            return await self.wait(key), False
        try:
            value = await fn()
        except BaseException as err:
            self.fail(key, err)
            raise
        self.resolve(key, value)
        return value, True
