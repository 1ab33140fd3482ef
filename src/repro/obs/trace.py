"""Structured tracing: nested spans with deterministic ids and a JSONL sink.

The paper's monitoring stack earns its keep by *correlating* events across
layers; this module gives the reproduction the same spine.  A span is one
timed operation (``with trace.span("serve.task", shard=3): ...``); spans
nest through a :mod:`contextvars` variable, so the hierarchy is correct in
threads and across ``await`` points, and every span records wall-clock
start, monotonic duration, pid/tid, and free-form attributes.

Design constraints, in order:

* **disabled is free** — tracing is off by default; ``span()`` then costs
  one branch and returns a shared no-op context manager, so hot paths keep
  their performance;
* **ids are deterministic below a parent** — a span's id is a hash of
  its parent's id, its name, and its sibling sequence number, so the
  subtree under any given context is identical across fork, spawn, and
  any worker interleaving; only *root* ids carry a per-process salt, so
  traces from many processes can append to one file without collisions;
* **cross-process spans re-parent cleanly** — a picklable
  :class:`SpanContext` travels to :class:`~repro.parallel.executor.Executor`
  workers with the task; worker-side spans are recorded under that parent
  and shipped back for the parent process to merge
  (:func:`capture` / :func:`merge_spans`);
* **the sink is multi-process safe** — spans buffer per process and flush
  as one append write, so a client and a server pointed at the same
  ``REPRO_TRACE`` file interleave whole lines, never bytes.

Span records are plain dicts (one JSON object per line in the sink file):
``{"name", "trace", "span", "parent", "ts", "dur", "pid", "tid", "attrs"}``
with ``ts`` the wall-clock epoch start and ``dur`` the monotonic duration,
both in seconds.  :mod:`repro.obs.export` renders them as a flame summary
or converts them to Chrome ``trace_event`` JSON for Perfetto.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = [
    "SpanContext",
    "span",
    "current_context",
    "current_span",
    "enable",
    "disable",
    "is_enabled",
    "enabled_from_env",
    "trace_path",
    "flush",
    "capture",
    "merge_spans",
]

#: fields every span record carries (the JSONL schema, validated by
#: ``tools/check_trace.py``)
RECORD_FIELDS = ("name", "trace", "span", "parent", "ts", "dur", "pid",
                 "tid", "attrs")

#: buffered records per process before an automatic flush
FLUSH_THRESHOLD = 256


@dataclass(frozen=True)
class SpanContext:
    """The picklable identity of a live span (what crosses process or
    network boundaries so remote work re-parents under it)."""

    trace_id: str
    span_id: str

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, raw: dict) -> "SpanContext | None":
        try:
            return cls(str(raw["trace_id"]), str(raw["span_id"]))
        except (TypeError, KeyError):
            return None


def _span_id(parent_id: str, name: str, seq: int) -> str:
    """Deterministic 16-hex id: hash of (parent id, name, sibling seq)."""
    h = hashlib.blake2b(
        f"{parent_id}/{name}#{seq}".encode(), digest_size=8
    )
    return h.hexdigest()


class _Span:
    """A live span: identity, attribute bag, child sequence counter."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs",
                 "_child_seq")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: str | None, attrs: dict):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._child_seq = 0

    def set(self, **attrs) -> "_Span":
        """Attach attributes to a span mid-flight (e.g. a queue wait
        measured after the span opened)."""
        self.attrs.update(attrs)
        return self

    def next_child_seq(self) -> int:
        seq = self._child_seq
        self._child_seq += 1
        return seq

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    @property
    def context(self) -> None:
        return None


class _NullSpanCM:
    """The shared no-op context manager (the entire disabled-path cost)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CM = _NullSpanCM()

# ---------------- global tracer state ----------------

_enabled = False
_path: str | None = None
_buffer: list[dict] = []
_lock = threading.Lock()
_root_seq = 0
#: per-process salt for root span ids only — child ids derive purely
#: from their parent's id, so cross-process determinism is untouched,
#: while two processes (or two runs) appending to one trace file can
#: never collide on a root
_ROOT_SALT = f"{os.getpid()}:{time.time_ns()}"
#: pid that owns the buffer/sink — a forked pool worker inherits the
#: parent's unflushed buffer and enabled state; its flushes must drop
#: the inherited records, not duplicate them into the file (worker spans
#: travel home via :func:`capture`, never via the worker's own sink)
_owner_pid = os.getpid()

#: the active span for the current thread/task (contextvars propagate
#: into asyncio tasks automatically; threads start empty)
_current: ContextVar[_Span | None] = ContextVar("repro_obs_span",
                                               default=None)
#: when set, span records append here instead of the sink (worker-side
#: capture, tests)
_capture: ContextVar[list | None] = ContextVar("repro_obs_capture",
                                               default=None)


def is_enabled() -> bool:
    return _enabled


def trace_path() -> str | None:
    """The sink file path (None when disabled or capture-only)."""
    return _path


def enable(path: str | os.PathLike | None = None) -> None:
    """Turn tracing on, appending JSONL records to ``path``.

    ``path=None`` enables span creation without a file sink — records
    are only visible through :func:`capture` (the unit-test mode).  The
    file is opened in append mode so several processes (a client and a
    server) can share one trace file.
    """
    global _enabled, _path, _owner_pid
    with _lock:
        if os.getpid() != _owner_pid:
            _buffer.clear()  # inherited from a fork parent; not ours
        _owner_pid = os.getpid()
        _path = None if path is None else str(path)
        _enabled = True


def disable() -> None:
    """Flush and turn tracing off (the no-op fast path returns)."""
    global _enabled, _path
    flush()
    with _lock:
        _enabled = False
        _path = None


def enabled_from_env() -> str | None:
    """The ``REPRO_TRACE`` convention: unset/``0``/``off``/``false`` means
    disabled; ``1``/``true``/``on`` means the default file
    (``repro-trace.jsonl`` in the working directory); anything else is the
    trace file path itself.  Returns the resolved path or None."""
    raw = os.environ.get("REPRO_TRACE")
    if raw is None:
        return None
    val = raw.strip()
    if val.lower() in ("", "0", "off", "false"):
        return None
    if val.lower() in ("1", "true", "on"):
        return "repro-trace.jsonl"
    return val


def flush() -> None:
    """Write buffered records to the sink file as one append."""
    with _lock:
        if not _buffer:
            return
        if os.getpid() != _owner_pid:
            _buffer.clear()  # forked copy of the parent's buffer
            return
        records, path = list(_buffer), _path
        _buffer.clear()
    if path is None:
        return
    chunk = "".join(
        json.dumps(r, separators=(",", ":")) + "\n" for r in records
    )
    with open(path, "a") as fh:
        fh.write(chunk)


atexit.register(flush)


def _write(record: dict) -> None:
    cap = _capture.get()
    if cap is not None:
        cap.append(record)
        return
    with _lock:
        _buffer.append(record)
        full = len(_buffer) >= FLUSH_THRESHOLD
    if full:
        flush()


class _SpanCM:
    """The enabled-path context manager returned by :func:`span`."""

    __slots__ = ("_name", "_attrs", "_parent", "_seq", "_span", "_token",
                 "_t0", "_ts")

    def __init__(self, name: str, attrs: dict,
                 parent: SpanContext | None, seq: int | None):
        self._name = name
        self._attrs = attrs
        self._parent = parent
        self._seq = seq

    def __enter__(self) -> _Span:
        name = self._name
        if self._parent is not None:
            trace_id = self._parent.trace_id
            parent_id = self._parent.span_id
            seq = 0 if self._seq is None else self._seq
            span_id = _span_id(parent_id, name, seq)
        else:
            active = _current.get()
            if active is not None:
                trace_id = active.trace_id
                parent_id = active.span_id
                seq = active.next_child_seq() if self._seq is None else self._seq
                span_id = _span_id(parent_id, name, seq)
            else:
                global _root_seq
                with _lock:
                    seq = _root_seq if self._seq is None else self._seq
                    _root_seq += 1
                parent_id = None
                span_id = _span_id(_ROOT_SALT, name, seq)
                trace_id = span_id
        self._span = _Span(name, trace_id, span_id, parent_id, self._attrs)
        self._token = _current.set(self._span)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        _current.reset(self._token)
        sp = self._span
        if exc_type is not None:
            sp.attrs["error"] = f"{exc_type.__name__}: {exc}"
        _write({
            "name": sp.name,
            "trace": sp.trace_id,
            "span": sp.span_id,
            "parent": sp.parent_id,
            "ts": self._ts,
            "dur": dur,
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "attrs": sp.attrs,
        })
        return False


def span(name: str, _parent: SpanContext | None = None,
         _seq: int | None = None, **attrs):
    """A context manager timing one named operation.

    ``_parent`` re-parents the span under an explicit remote context
    (executor workers, the TCP server adopting a client's context);
    ``_seq`` pins the sibling sequence number (executor tasks use their
    item index so ids stay deterministic however workers interleave).
    Extra keyword arguments become span attributes; more can be attached
    via ``.set()`` on the yielded span.  While tracing is disabled this
    returns a shared no-op context manager.
    """
    if not _enabled:
        return _NULL_CM
    return _SpanCM(name, attrs, _parent, _seq)


def current_span() -> _Span | None:
    """The innermost live span of this thread/task (None outside any)."""
    return _current.get()


def current_span_name() -> str | None:
    """Name of the innermost live span (the profiler's attribution key)."""
    sp = _current.get()
    return sp.name if sp is not None else None


def current_context() -> SpanContext | None:
    """The picklable context of the active span, for crossing process or
    network boundaries (None when tracing is off or no span is open)."""
    sp = _current.get()
    return sp.context if sp is not None else None


@contextmanager
def capture():
    """Collect span records produced in this context into a list instead
    of the sink (the process-worker side of cross-process tracing)."""
    records: list[dict] = []
    token = _capture.set(records)
    try:
        yield records
    finally:
        _capture.reset(token)


def merge_spans(records: list[dict]) -> None:
    """Feed worker-produced span records into this process's sink.

    The records already carry their (deterministic) parent links — the
    worker opened them under the shipped :class:`SpanContext` — so the
    merge is a plain write in task order.
    """
    for record in records:
        _write(record)
