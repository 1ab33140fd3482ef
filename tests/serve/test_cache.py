"""ResultCache LRU behavior and SingleFlight dedup semantics."""

import asyncio

import numpy as np
import pytest

from repro.frame.table import Table
from repro.serve import ResultCache, SingleFlight


def _table(n=100, fill=1.0):
    return Table({
        "t": np.arange(n, dtype=np.float64),
        "v": np.full(n, fill),
    })


def _key(i: int) -> str:
    return f"{i:02x}" * 32


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        key = _key(1)
        assert cache.get(key) is None
        cache.put(key, _table())
        got = cache.get(key)
        assert got is not None and got == _table()
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_evicts_oldest(self):
        one = _table(100).nbytes()
        cache = ResultCache(max_bytes=int(2.5 * one))
        for i in range(3):
            cache.put(_key(i), _table(100, fill=float(i)))
        assert cache.n_entries == 2
        assert cache.evictions == 1
        assert cache.get(_key(0)) is None      # the oldest went
        assert cache.get(_key(2)) is not None

    def test_get_refreshes_recency(self):
        one = _table(100).nbytes()
        cache = ResultCache(max_bytes=int(2.5 * one))
        cache.put(_key(0), _table(100))
        cache.put(_key(1), _table(100))
        assert cache.get(_key(0)) is not None  # 0 becomes most recent
        cache.put(_key(2), _table(100))        # so 1 is evicted, not 0
        assert cache.get(_key(1)) is None
        assert cache.get(_key(0)) is not None

    def test_newest_survives_even_oversized(self):
        cache = ResultCache(max_bytes=8)       # smaller than any table
        cache.put(_key(0), _table())
        assert cache.n_entries == 1
        assert cache.n_bytes > cache.max_bytes

    def test_overwrite_same_key_updates_bytes(self):
        cache = ResultCache()
        cache.put(_key(0), _table(100))
        before = cache.n_bytes
        cache.put(_key(0), _table(200))
        assert cache.n_entries == 1
        assert cache.n_bytes == 2 * before

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


class TestSingleFlight:
    def test_leader_then_followers_share_result(self):
        async def main():
            flight = SingleFlight()
            calls = 0

            async def work():
                nonlocal calls
                calls += 1
                await asyncio.sleep(0.01)
                return "answer"

            outs = await asyncio.gather(
                *[flight.run("k", work) for _ in range(5)]
            )
            return calls, outs

        calls, outs = asyncio.run(main())
        assert calls == 1
        assert sorted(led for _, led in outs) == [False] * 4 + [True]
        assert all(v == "answer" for v, _ in outs)

    def test_failure_propagates_to_followers(self):
        async def main():
            flight = SingleFlight()

            async def boom():
                await asyncio.sleep(0.01)
                raise RuntimeError("shard read failed")

            results = await asyncio.gather(
                *[flight.run("k", boom) for _ in range(3)],
                return_exceptions=True,
            )
            return results, len(flight._flights)

        results, inflight = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert inflight == 0  # key released: a retry starts fresh

    def test_key_released_after_resolve(self):
        async def main():
            flight = SingleFlight()

            async def work():
                return 1

            await flight.run("k", work)
            assert not flight._flights
            assert await flight.run("k", work) == (1, True)  # fresh flight

        asyncio.run(main())

    def test_distinct_keys_run_independently(self):
        async def main():
            flight = SingleFlight()
            ran = []

            def worker(key):
                async def work():
                    ran.append(key)
                    return key
                return work

            outs = await asyncio.gather(
                flight.run("a", worker("a")), flight.run("b", worker("b"))
            )
            return ran, outs

        ran, outs = asyncio.run(main())
        assert sorted(ran) == ["a", "b"]
        assert all(led for _, led in outs)
