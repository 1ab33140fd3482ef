"""repro.obs — unified observability: tracing, metrics, profiling.

The glue the paper's monitoring story needs on our side of the glass:

* :mod:`repro.obs.trace` — nested spans with deterministic ids,
  cross-process propagation through ``parallel.Executor`` and the serve
  TCP protocol, JSONL sink (``REPRO_TRACE=<file>``);
* :mod:`repro.obs.metrics` — counters and gauges in a keyed registry,
  where the scheduler mirrors its ``sched.*`` op counters (the
  ``PipelineStats`` / ``ServiceStats`` / ``StreamStats`` counters are
  plain attributes of their own);
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
from .metrics import REGISTRY, Counter, Gauge, MetricsRegistry
from .profile import SamplingProfiler, profile_from_env
from .trace import SpanContext, current_context, span

__all__ = [
    "trace",
    "span",
    "SpanContext",
    "current_context",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "REGISTRY",
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
