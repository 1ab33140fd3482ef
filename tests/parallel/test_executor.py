"""Unit tests for the Executor backends."""

import asyncio
import glob
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.frame import (Table, columnar, compression_mode,
                         open_rcs, save_rcs)
from repro.parallel import Executor, NotPicklableError
from repro.parallel.executor import default_workers


def square(x):
    return x * x


def boom(x):
    raise RuntimeError("partition failed")


class TestExecutor:
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_map_preserves_order(self, backend):
        ex = Executor(backend=backend, max_workers=2)
        assert ex.map(square, range(10)) == [i * i for i in range(10)]

    def test_bad_backend(self):
        with pytest.raises(ValueError):
            Executor(backend="gpu")

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_exceptions_propagate(self, backend):
        ex = Executor(backend=backend)
        with pytest.raises(RuntimeError, match="partition failed"):
            ex.map(boom, [1, 2])

    def test_single_item_runs_inline(self):
        ex = Executor(backend="processes")
        assert ex.map(square, [4]) == [16]

    def test_empty_items(self):
        assert Executor().map(square, []) == []

    def test_numpy_payloads(self):
        ex = Executor(backend="threads", max_workers=3)
        arrays = [np.full(10, i) for i in range(5)]
        out = ex.map(np.sum, arrays)
        assert out == [0, 10, 20, 30, 40]

    def test_repr(self):
        assert "threads" in repr(Executor(backend="threads"))


@pytest.fixture()
def pool_widths(monkeypatch, tmp_path):
    """The size of each pool ``REPRO_MAX_WORKERS`` caps, as callables:
    the executor's default, and the thread pool one ``save_rcs`` of a
    six-column shard builds on a four-core host (1 when it runs its
    columns inline).  Reads build no pool (``TestOnePoolPerRequest``)."""
    built = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(columnar, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(columnar.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("REPRO_RCS_COMPRESSION", "auto")
    table = Table({f"c{i}": np.arange(500.0) + i for i in range(6)})
    save_rcs(table, tmp_path / "t.rcs")

    def codec_width(call, *args, **kwargs):
        del built[:]
        call(*args, **kwargs)
        return built[0] if built else 1

    return [
        default_workers,
        lambda: codec_width(save_rcs, table, tmp_path / "u.rcs"),
    ]


class TestDefaultWorkersEnv:
    """One parser, ``repro.config.cap_workers``, behind every pool."""

    def test_env_caps_workers(self, monkeypatch, pool_widths):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        assert [width() for width in pool_widths] == [1, 1]

    def test_env_never_drops_below_one(self, monkeypatch, pool_widths):
        for cap in ("0", "-3"):
            monkeypatch.setenv("REPRO_MAX_WORKERS", cap)
            assert [width() for width in pool_widths] == [1, 1]

    def test_env_cannot_raise_above_heuristic(self, monkeypatch, pool_widths):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        base = [width() for width in pool_widths]
        assert base == [4, 4]  # one thread per core, both pools
        monkeypatch.setenv("REPRO_MAX_WORKERS", str(max(base) + 100))
        assert [width() for width in pool_widths] == base

    def test_env_non_integer_rejected(self, monkeypatch, pool_widths):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "many")
        for width in pool_widths:
            with pytest.raises(ValueError, match="REPRO_MAX_WORKERS must be "
                                                 "an integer, got 'many'"):
                width()

    def test_executor_picks_up_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        assert Executor(backend="threads").max_workers == 1

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_below_one_fails_at_construction(self, count):
        with pytest.raises(ValueError,
                           match=f"^max_workers must be >= 1, got {count}$"):
            Executor(backend="threads", max_workers=count)


class TestOnePoolPerRequest:
    """Shard reads decode on the calling thread: the caller's fan-out
    (an executor map, the query service's pool) is the only pool."""

    @pytest.fixture()
    def pools_built(self, monkeypatch):
        """Widths of every ``ThreadPoolExecutor`` built, on a four-core
        host with no cap (so a nested pool would be wide anywhere)."""
        built = []
        real_init = ThreadPoolExecutor.__init__

        def recording_init(pool, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            real_init(pool, max_workers, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", recording_init)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        return built

    def test_reads_build_no_pool(self, pools_built, tmp_path, monkeypatch):
        from repro.datasets.store import write_partitioned_series
        from repro.parallel import PartitionedDataset

        table = big_table(n=4_000).select(["node", "timestamp", "power"])
        with monkeypatch.context() as mp:
            mp.setenv("REPRO_RCS_COMPRESSION", "auto")
            save_rcs(table, tmp_path / "t.rcs")
        write_partitioned_series(table, tmp_path, "ds", day_s=1_000.0)
        # the encodes: the ``auto`` save above, then one per shard of the
        # dataset unless ``REPRO_RCS_COMPRESSION=off`` keeps it raw
        shards = 4 if compression_mode() == "auto" else 0
        assert pools_built == [3] * (1 + shards)
        del pools_built[:]

        shard = open_rcs(tmp_path / "t.rcs")
        assert set(shard.codecs.values()) != {"raw"}
        assert shard.read() == table
        assert open_rcs(tmp_path / "t.rcs").read_time_range(
            100.0, 3_000.0) == table[100:3_000]
        assert open_rcs(tmp_path / "t.rcs").read(["power", "node"]) == (
            table.select(["power", "node"]))
        assert PartitionedDataset(tmp_path / "ds").to_table() == table
        assert pools_built == []

    def test_cold_query_builds_no_pool(self, pools_built, tmp_path):
        from repro.datasets.store import write_partitioned_series
        from repro.plan import Query
        from repro.serve import QueryService

        table = big_table(n=4_000).select(["node", "timestamp", "power"])
        write_partitioned_series(
            Table({"node": table["node"], "timestamp": table["timestamp"],
                   "input_power": table["power"]}),
            tmp_path, "ds", day_s=1_000.0)
        service = QueryService(tmp_path / "ds")
        try:
            assert pools_built[-1] == service._pool._max_workers == 4
            del pools_built[:]
            answer = asyncio.run(service.query(Query(t_begin=0.0,
                                                     t_end=4_000.0)))
            assert answer["status"] == "ok" and answer["cache"] == "miss"
            assert answer["shards"]["scanned"] == 4
        finally:
            service.close()
        assert pools_built == []


class TestProcessBackendErrors:
    def test_lambda_raises_clear_error(self):
        ex = Executor(backend="processes", max_workers=2)
        with pytest.raises(NotPicklableError, match="picklable"):
            ex.map(lambda x: x + 1, [1, 2, 3])

    def test_not_picklable_is_a_type_error(self):
        assert issubclass(NotPicklableError, TypeError)

    def test_closure_raises_clear_error(self):
        bound = 10

        def closure(x):
            return x + bound

        ex = Executor(backend="processes", max_workers=2)
        with pytest.raises(NotPicklableError):
            ex.map(closure, [1, 2])

    def test_single_item_lambda_is_fine(self):
        # <= 1 item falls back to inline execution, so no pickling needed
        ex = Executor(backend="processes")
        assert ex.map(lambda x: x + 1, [41]) == [42]

    def test_exceptions_propagate_from_workers(self):
        ex = Executor(backend="processes", max_workers=2)
        with pytest.raises(RuntimeError, match="partition failed"):
            ex.map(boom, [1, 2])


def big_table(seed: int = 0, n: int = 20_000) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        {
            "node": np.repeat(np.arange(n // 100), 100).astype(np.int64),
            "timestamp": np.arange(n, dtype=np.float64),
            "power": rng.normal(2000.0, 100.0, n),
            "flag": rng.random(n) < 0.5,
            "name": np.array([f"n{i % 7}" for i in range(n)]),
        }
    )


def double_power(t: Table) -> Table:
    return t.with_column("power", t["power"] * 2.0)


def return_input(t: Table) -> Table:
    return t


def head_rows(t: Table) -> Table:
    return t[:4]


def assert_same_tables(expected: list[Table], got: list[Table]) -> None:
    assert len(expected) == len(got)
    for a, b in zip(expected, got):
        assert a.columns == b.columns
        for c in a.columns:
            assert a[c].dtype == b[c].dtype
            assert np.array_equal(a[c], b[c])


@pytest.mark.parametrize("mp_context", ["fork", "spawn"])
class TestProcessTransport:
    """Tables cross the process pool by pickle, in and out, and come
    back bit for bit what the serial backend computes."""

    @staticmethod
    def both(mp_context):
        return (Executor(backend="serial"),
                Executor(backend="processes", max_workers=2,
                         mp_context=mp_context))

    def test_map_matches_serial(self, mp_context):
        serial, procs = self.both(mp_context)
        items = [big_table(seed) for seed in range(4)]
        assert_same_tables(serial.map(double_power, items),
                           procs.map(double_power, items))

    def test_task_returning_its_input(self, mp_context):
        _, procs = self.both(mp_context)
        items = [big_table(s) for s in range(2)]
        assert_same_tables(items, procs.map(return_input, items))

    def test_small_and_large_results(self, mp_context):
        _, procs = self.both(mp_context)
        items = [big_table(s) for s in range(2)]
        small = procs.map(head_rows, items)
        assert all(t.nbytes() < 1 << 16 for t in small)
        assert_same_tables([t[:4] for t in items], small)
        large = procs.map(double_power, items)
        assert all(t.nbytes() >= 1 << 16 for t in large)
        assert_same_tables([double_power(t) for t in items], large)

    @pytest.mark.parametrize("compression", ["off", "auto"])
    def test_map_over_rcs_tables(self, mp_context, compression, tmp_path,
                                 monkeypatch):
        """Raw shards read as mmap views, compressed ones as decoded
        arrays; either pickles as a self-contained copy."""
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", compression)
        serial, procs = self.both(mp_context)
        items = []
        for i in range(3):
            save_rcs(big_table(i, n=2_000), tmp_path / f"s{i}.rcs")
            items.append(open_rcs(tmp_path / f"s{i}.rcs").read())
        assert_same_tables(serial.map(double_power, items),
                           procs.map(double_power, items))


def megabyte_result(job: tuple) -> Table:
    """A 1.6 MB table per item; item 5 meets its ``fate`` instead."""
    i, fate = job
    if i == 5 and fate == "raises":
        raise ValueError("task 5 failed")
    if i == 5 and fate == "killed":
        os.kill(os.getpid(), signal.SIGKILL)
    return Table({"x": np.full(200_000, float(i))})


def bounded(call, seconds: float = 10.0):
    """Run ``call`` on a thread so a hang fails the test, not the suite."""
    box = {}

    def target():
        try:
            box["value"] = call()
        except BaseException as exc:  # re-raised on the test's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestWorkerFailures:
    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="no /dev/shm to leak into")
    @pytest.mark.parametrize("fate, error", [
        ("ok", None), ("raises", ValueError), ("killed", BrokenProcessPool),
    ])
    def test_no_shared_memory_left_behind(self, fate, error):
        before = set(glob.glob("/dev/shm/psm_*"))
        ex = Executor(backend="processes", max_workers=2)
        jobs = [(i, fate) for i in range(6)]
        if error is None:
            out = bounded(lambda: ex.map(megabyte_result, jobs))
            assert [float(t["x"][0]) for t in out] == [0, 1, 2, 3, 4, 5]
        else:
            with pytest.raises(error):
                bounded(lambda: ex.map(megabyte_result, jobs))
        assert set(glob.glob("/dev/shm/psm_*")) == before

    def test_killed_worker_is_attributable(self):
        ex = Executor(backend="processes", max_workers=2)
        jobs = [(i, "killed") for i in range(6)]
        with pytest.raises(BrokenProcessPool) as err:
            bounded(lambda: ex.map(megabyte_result, jobs, label="fused"))
        assert err.value.__notes__ == [
            "repro.parallel task context: stage 'fused', 6 items, "
            "backend 'processes' (2 workers): a worker process died"
        ]
        # the pool died with the call, not the executor
        assert ex.map(square, range(6)) == [i * i for i in range(6)]
