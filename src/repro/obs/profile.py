"""Sampling wall-clock profiler with per-span attribution.

``REPRO_PROFILE=1`` arms a ``SIGALRM`` interval timer; each tick reads
the interrupted frame and charges one sample to ``(active span name,
function, file:line)``.  Because the key includes the innermost live
:mod:`repro.obs.trace` span, the report answers "*which code* inside
*which operation* burns the wall clock" — the join between profiling
and tracing that neither gives alone.

Signal-based sampling only observes the main thread (CPython delivers
signals there); worker-pool time shows up indirectly as time under the
span that awaits it.  The profiler is a context manager and restores
the previous ``SIGALRM`` disposition on exit.
"""

from __future__ import annotations

import math
import os
import signal
from collections import Counter as _TallyCounter

from . import trace

__all__ = ["SamplingProfiler", "profile_from_env"]

DEFAULT_INTERVAL_S = 0.005


class SamplingProfiler:
    """Periodic main-thread stack sampler keyed by the active span."""

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S):
        self.interval_s = float(interval_s)
        self.samples: _TallyCounter = _TallyCounter()
        self._prev_handler = None
        self._armed = False

    def _tick(self, signum, frame) -> None:
        span_name = trace.current_span_name() or "<no span>"
        if frame is not None:
            code = frame.f_code
            site = (f"{code.co_name} "
                    f"({os.path.basename(code.co_filename)}:"
                    f"{frame.f_lineno})")
        else:
            site = "<unknown>"
        self.samples[(span_name, site)] += 1

    def start(self) -> None:
        self._prev_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        self._armed = True

    def stop(self) -> None:
        if not self._armed:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._prev_handler)
        self._armed = False

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def report(self, limit: int = 20) -> str:
        """Samples grouped by span, hottest sites first within each."""
        total = sum(self.samples.values())
        if total == 0:
            return "no samples collected"
        per_span: dict[str, _TallyCounter] = {}
        for (span_name, site), n in self.samples.items():
            per_span.setdefault(span_name, _TallyCounter())[site] += n
        lines = [f"{total} samples @ {self.interval_s * 1e3:.0f} ms"]
        order = sorted(per_span.items(),
                       key=lambda kv: -sum(kv[1].values()))
        for span_name, sites in order:
            span_total = sum(sites.values())
            lines.append(f"span {span_name}  "
                         f"{span_total / total * 100:5.1f}%  "
                         f"({span_total} samples)")
            for site, n in sites.most_common(limit):
                lines.append(f"  {n / total * 100:5.1f}%  {site}")
        return "\n".join(lines)


def profile_from_env() -> SamplingProfiler | None:
    """An armed profiler when ``REPRO_PROFILE`` asks for one: ``1`` uses
    the default interval, any other value is the interval in ms; one
    that is not a finite positive number is a ``ValueError``."""
    raw = os.environ.get("REPRO_PROFILE", "")
    val = raw.strip().lower()
    if val in ("", "0", "off", "false"):
        return None
    if val in ("1", "true", "on"):
        return SamplingProfiler()
    try:
        ms = float(val)
    except ValueError:
        ms = math.nan
    if not 0.0 < ms < math.inf:
        raise ValueError("REPRO_PROFILE must be 1 or an interval in ms, "
                         f"got {raw!r}")
    return SamplingProfiler(ms / 1e3)
