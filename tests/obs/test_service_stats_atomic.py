"""Hammer test: `ServiceStats.snapshot()` is atomic under concurrency.

Before the obs re-base, counters were mutated without a lock from
worker-pool callbacks; a snapshot taken mid-update could observe
``queries`` incremented but not yet ``ok`` (or half a fragment batch).
Now every record and every snapshot takes the stats lock, so the
invariants below hold in *every* snapshot, not just the final one, and
no bump is lost: the encode-offload counter the TCP layer bumps from the
event loop while pool callbacks record lands exactly.
"""

from __future__ import annotations

import sys
import threading

from repro.serve.stats import ServiceStats

RECORDS_PER_THREAD = 300
THREADS = 8


def _hammer(stats: ServiceStats, start: threading.Event) -> None:
    start.wait()
    for i in range(RECORDS_PER_THREAD):
        stats.record_offload()  # as the TCP layer counts an offload
        kind = i % 5
        if kind == 0:
            stats.record_rejected()
        elif kind == 1:
            stats.record_error()
        elif kind == 2:
            stats.record_ok(cache="hit", rows=10, elapsed_s=0.001)
        else:
            stats.record_ok(
                cache="miss", rows=25, elapsed_s=0.002,
                shards_scanned=4, shards_pruned=1, executed_s=0.001,
                fragments={"hits": 1, "shared": 1, "misses": 2,
                           "full": 2, "aligned": 1, "partial": 1})


def test_snapshot_consistent_under_concurrent_records():
    stats = ServiceStats()
    start = threading.Event()
    threads = [threading.Thread(target=_hammer, args=(stats, start))
               for _ in range(THREADS)]
    for t in threads:
        t.start()
    # switch threads often, so a read-modify-write outside the lock
    # would lose bumps
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start.set()
        snapshots = []
        while any(t.is_alive() for t in threads):
            snapshots.append(stats.snapshot())
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    snapshots.append(stats.snapshot())

    for snap in snapshots:
        # a torn read would break the ledger: every query is exactly one
        # of ok / rejected / error
        assert snap["queries"] == (
            snap["ok"] + snap["rejected"] + snap["errors"]), snap
        # fragment counters land as one batch with the executed query
        assert snap["frag_hits"] == snap["frag_shared"], snap
        assert snap["frag_misses"] == 2 * snap["frag_hits"], snap
        assert snap["tasks_full"] == 2 * snap["tasks_aligned"], snap
        assert snap["tasks_aligned"] == snap["tasks_partial"], snap
        # executed queries carry their shard accounting in the same batch
        assert snap["shards_scanned"] == 4 * snap["executed"], snap
        assert snap["shards_pruned"] == snap["executed"], snap

    total = THREADS * RECORDS_PER_THREAD
    final = snapshots[-1]
    assert final["queries"] == total
    assert final["rejected"] == total // 5
    assert final["errors"] == total // 5
    assert final["cache_hits"] == total // 5
    assert final["executed"] == 2 * (total // 5)
    assert final["encode_offloads"] == total


def test_report_renders_under_concurrent_records():
    stats = ServiceStats()
    start = threading.Event()
    threads = [threading.Thread(target=_hammer, args=(stats, start))
               for _ in range(4)]
    for t in threads:
        t.start()
    start.set()
    for _ in range(20):
        text = stats.report()
        assert text.startswith("query service")
    for t in threads:
        t.join()
