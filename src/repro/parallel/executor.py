"""Map engine with thread and process backends.

Threads are the default: numpy reductions and zlib release the GIL, so a
thread-parallel map over archive shards scales without the pickling cost
of processes.  The process backend ships items and results the way
``ProcessPoolExecutor`` does, by pickle.  Measured on two cores (README,
"One code path per behaviour"): it is 1.3-1.8x faster than threads on the
week-scale twin derivations (``cluster_power`` and ``job_series``: Python
loops over allocations that hold the GIL) and 4x slower on an archive
scan.  :class:`~repro.pipeline.runner.Pipeline` therefore picks the
backend by stage; no user does.  A map of one item, or on one worker,
runs inline on the calling thread whatever the backend.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.config import cap_workers
from repro.obs import trace

_BACKENDS = ("threads", "processes")

#: first element of the tuple a traced worker call returns in place of
#: its bare result; the extra slots carry the worker-side span records
#: home.
_OBS_RESULT = "repro.obs.result.v1"


class NotPicklableError(TypeError):
    """The process backend was handed a function it cannot ship to workers."""


def default_workers() -> int:
    """Worker count heuristic: one thread per core.

    The thread that calls :meth:`Executor.map` (or the server's event
    loop) only waits on the pool, so it needs no core of its own.  The
    ``REPRO_MAX_WORKERS`` environment variable caps the result (useful
    on shared CI runners and inside nested pipelines).
    """
    return cap_workers(os.cpu_count() or 1)


def default_mp_context() -> str:
    """Start method for process pools: ``REPRO_MP_CONTEXT`` if set, else
    ``fork`` where available (sub-millisecond worker startup) with ``spawn``
    as the portable fallback."""
    env = os.environ.get("REPRO_MP_CONTEXT")
    if env:
        return env
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class Executor:
    """Execute ``fn`` over items with a chosen backend.

    Parameters
    ----------
    backend:
        ``"threads"`` or ``"processes"``.
    max_workers:
        Pool size, at least 1; defaults to :func:`default_workers`.  One
        worker runs every map inline, as does a map of one item.
    mp_context:
        Start method for the process backend (``"fork"``, ``"spawn"``,
        ``"forkserver"``); defaults to :func:`default_mp_context`.
        Ignored by the thread backend.
    """

    def __init__(
        self,
        backend: str = "threads",
        max_workers: int | None = None,
        mp_context: str | None = None,
    ):
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers!r}")
        self.backend = backend
        self.max_workers = default_workers() if max_workers is None else max_workers
        self.mp_context = mp_context or default_mp_context()

    def __repr__(self) -> str:
        return (
            f"Executor(backend={self.backend!r}, max_workers={self.max_workers}"
            + (f", mp_context={self.mp_context!r}" if self.backend == "processes" else "")
            + ")"
        )

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        label: str | None = None,
    ) -> list[Any]:
        """Apply ``fn`` to each item, preserving input order.

        Exceptions raised by ``fn`` propagate to the caller (fail-fast):
        a failed partition must abort the analysis rather than silently
        produce a truncated year.  Worker failures carry the task's
        context — ``label`` (the pipeline stage), item index, and a
        short item description — as an exception note, so a dead shard
        is attributable without re-running.

        With tracing enabled, the fan-out is one ``executor.map`` span
        and each item an ``executor.task`` child whose sibling sequence
        is the item *index* — ids stay deterministic however pool
        workers interleave, on threads and on fork/spawn processes.
        """
        items = list(items)
        if not trace.is_enabled():
            return self._dispatch(fn, items, label, None)
        attrs: dict[str, Any] = {"backend": self._route(items),
                                 "items": len(items)}
        if label is not None:
            attrs["label"] = label
        with trace.span("executor.map", **attrs) as sp:
            return self._dispatch(fn, items, label, sp.context)

    def _route(self, items: list[Any]) -> str:
        if self.max_workers == 1 or len(items) <= 1:
            return "inline"
        return self.backend

    def _dispatch(
        self,
        fn: Callable[[Any], Any],
        items: list[Any],
        label: str | None,
        span_ctx: trace.SpanContext | None,
    ) -> list[Any]:
        call = _ObsCall(fn, span_ctx, label)
        route = self._route(items)
        if route == "inline":
            results = [call(pair) for pair in enumerate(items)]
        elif route == "threads":
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                results = list(pool.map(call, enumerate(items)))
        else:
            results = self._map_processes(call, items)
        return [_collect(r) for r in results]

    def _map_processes(self, call: "_ObsCall", items: list[Any]) -> list[Any]:
        _check_picklable(call.fn)
        ctx = multiprocessing.get_context(self.mp_context)
        try:
            with ProcessPoolExecutor(max_workers=self.max_workers, mp_context=ctx) as pool:
                results = list(pool.map(call, enumerate(items)))
        except BrokenProcessPool as exc:
            # no task raised: a worker was killed (OOM, signal), so the
            # per-task note of _ObsCall never ran — say what was in flight
            parts = [] if call.label is None else [f"stage {call.label!r}"]
            parts.append(f"{len(items)} items")
            parts.append(f"backend 'processes' ({self.max_workers} workers)")
            _add_context_note(exc, ", ".join(parts) + ": a worker process died")
            raise
        return results


def _check_picklable(fn: Callable[[Any], Any]) -> None:
    """Fail with a clear message before a process pool chokes on ``fn``.

    ``ProcessPoolExecutor`` surfaces unpicklable callables as an opaque
    ``PicklingError`` from a worker feed thread (sometimes hanging the
    pool); checking up front turns that into an actionable error.
    """
    try:
        pickle.dumps(fn)
    except Exception as exc:
        raise NotPicklableError(
            f"backend 'processes' requires a picklable function, but "
            f"{fn!r} cannot be pickled ({exc}); use a module-level function "
            f"(or a picklable callable class) instead of a lambda/closure"
        ) from exc


class _ObsCall:
    """Per-task adapter shared by the inline route and both pools.

    Receives ``(index, item)`` pairs.  Always: a worker exception gains
    a note naming the stage label, item index, and a short item
    description before it re-raises (failures stay attributable without
    a re-run).  When the parent had tracing on (``span_ctx`` set): the
    task runs inside an ``executor.task`` span whose parent is the
    shipped context and whose sibling seq is the item index — ids are
    identical under fork, spawn, threads, and any interleaving — and the
    call returns ``(_OBS_RESULT, result, spans)`` so the parent can
    merge the worker-side records in task order.
    """

    __slots__ = ("fn", "span_ctx", "label")

    def __init__(self, fn: Callable[[Any], Any],
                 span_ctx: trace.SpanContext | None,
                 label: str | None):
        self.fn = fn
        self.span_ctx = span_ctx
        self.label = label

    def __call__(self, pair: tuple) -> Any:
        index, item = pair
        try:
            if self.span_ctx is None:
                return self.fn(item)
            if not trace.is_enabled():
                # spawn-context worker: enable span creation sink-less;
                # records only travel home via capture()
                trace.enable(None)
            attrs = {"index": index}
            if self.label is not None:
                attrs["label"] = self.label
            with trace.capture() as spans:
                with trace.span("executor.task", _parent=self.span_ctx,
                                _seq=index, **attrs):
                    result = self.fn(item)
            return (_OBS_RESULT, result, spans)
        except Exception as exc:
            _annotate_task_failure(exc, self.label, index, item)
            raise


def _collect(result: Any) -> Any:
    """Parent-side completion: merge any worker span records riding the
    result and hand back the bare payload."""
    if (isinstance(result, tuple) and len(result) == 3
            and result[0] == _OBS_RESULT):
        trace.merge_spans(result[2])
        return result[1]
    return result


def _annotate_task_failure(exc: Exception, label: str | None,
                           index: int, item: Any) -> None:
    """Attach the failing task's context to the exception as a note."""
    parts = [f"task {index}"]
    if label is not None:
        parts.append(f"stage {label!r}")
    parts.append(f"item {_describe_item(item)}")
    _add_context_note(exc, ", ".join(parts))


def _add_context_note(exc: Exception, context: str) -> None:
    """Attach ``context`` as an exception note, once (notes survive
    pickling back from a process worker)."""
    note = "repro.parallel task context: " + context
    if hasattr(exc, "add_note"):
        notes = getattr(exc, "__notes__", ())
        if note not in notes:
            exc.add_note(note)


def _describe_item(item: Any) -> str:
    """A short, safe description of a task item for failure notes —
    scalar tuples (chunk time ranges, shard indices) show verbatim,
    bulky payloads show as their type."""
    if isinstance(item, tuple) and all(
            isinstance(el, (int, float, str, type(None))) for el in item):
        text = repr(item)
        return text if len(text) <= 120 else text[:117] + "..."
    if isinstance(item, (int, float, str)):
        return repr(item)
    return f"<{type(item).__name__}>"
