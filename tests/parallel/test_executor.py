"""Unit tests for the Executor backends."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.frame import Table, columnar, load_rcs, save_rcs
from repro.parallel import Executor, NotPicklableError
from repro.parallel.executor import default_workers, _StarCall


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

    def test_starmap(self):
        ex = Executor(backend="serial")
        assert ex.starmap(pow, [(2, 3), (3, 2)]) == [8, 9]

    def test_starmap_threads(self):
        ex = Executor(backend="threads", max_workers=2)
        assert ex.starmap(pow, [(2, 3), (3, 2), (2, 5)]) == [8, 9, 32]

    def test_single_item_runs_inline(self):
        ex = Executor(backend="processes")
        assert ex.map(square, [4]) == [16]

    def test_empty_items(self):
        assert Executor().map(square, []) == []

    def test_starcall_picklable(self):
        import pickle

        sc = _StarCall(pow)
        sc2 = pickle.loads(pickle.dumps(sc))
        assert sc2((2, 4)) == 16

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
    the executor's default, and the thread pool one ``save_rcs`` / one
    ``load_rcs`` of a six-column shard builds on a four-core host (1
    when it runs its columns inline)."""
    built = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(columnar, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(columnar.os, "cpu_count", lambda: 4)
    table = Table({f"c{i}": np.arange(500.0) + i for i in range(6)})
    save_rcs(table, tmp_path / "t.rcs", compression="auto")

    def codec_width(call, *args, **kwargs):
        del built[:]
        call(*args, **kwargs)
        return built[0] if built else 1

    return [
        default_workers,
        lambda: codec_width(save_rcs, table, tmp_path / "u.rcs",
                            compression="auto"),
        lambda: codec_width(load_rcs, tmp_path / "t.rcs"),
    ]


class TestDefaultWorkersEnv:
    """One parser, ``repro.config.cap_workers``, behind every pool."""

    def test_env_caps_workers(self, monkeypatch, pool_widths):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        assert [width() for width in pool_widths] == [1, 1, 1]

    def test_env_never_drops_below_one(self, monkeypatch, pool_widths):
        for cap in ("0", "-3"):
            monkeypatch.setenv("REPRO_MAX_WORKERS", cap)
            assert [width() for width in pool_widths] == [1, 1, 1]

    def test_env_cannot_raise_above_heuristic(self, monkeypatch, pool_widths):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        base = [width() for width in pool_widths]
        assert base[1:] == [4, 4]
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
