"""repro.obs — unified observability: tracing, counters, profiling.

The glue the paper's monitoring story needs on our side of the glass:

* :mod:`repro.obs.trace` — nested spans with deterministic ids,
  cross-process propagation through ``parallel.Executor`` and the serve
  TCP protocol, JSONL sink (``REPRO_TRACE=<file>``);
* :mod:`repro.obs.counters` — the one counter record (``Counters``: plain
  attributes named by ``FIELDS``) and its per-owner table
  (``CounterTable``) under ``PipelineStats``, ``StreamStats`` and
  ``ServiceStats``;
* :mod:`repro.obs.profile` — signal-based wall-clock sampler with
  per-span attribution (``REPRO_PROFILE=1``);
* :mod:`repro.obs.export` — flame summaries, Chrome ``trace_event``
  conversion, and the forest validation used by ``tools/check_trace.py``;
* :mod:`repro.obs.events` — append-only NDJSON event log (the serve
  slow-query log).

Everything is stdlib-only and free when disabled: a ``trace.span()``
call with tracing off is one branch returning a shared no-op context
manager.
"""

from . import trace
from .events import NdjsonLog
from .export import (TraceError, build_forest, flame_summary, load_trace,
                     to_chrome, validate_spans)
from .counters import Counters, CounterTable
from .profile import SamplingProfiler, profile_from_env
from .trace import SpanContext, current_context, span

__all__ = [
    "trace",
    "span",
    "SpanContext",
    "current_context",
    "Counters",
    "CounterTable",
    "SamplingProfiler",
    "profile_from_env",
    "NdjsonLog",
    "TraceError",
    "load_trace",
    "validate_spans",
    "build_forest",
    "flame_summary",
    "to_chrome",
]
