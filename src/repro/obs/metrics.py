"""Metrics registry: counters and gauges keyed by name and labels.

One process-wide :data:`REGISTRY`, where the scheduler mirrors its
``sched.*`` op counters; ``snapshot()`` is a JSON-able copy of a whole
registry.  The pipeline, serve and stream stats keep plain-attribute
records of their own.  Metrics never cross a process boundary: executor
workers ship their spans home (:func:`repro.obs.trace.merge_spans`), not
their counters.
"""

from __future__ import annotations

import threading

__all__ = ["Counter", "Gauge", "MetricsRegistry", "REGISTRY"]


class Counter:
    """A monotonically meaningful additive count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def state(self) -> float:
        return self.value


class Gauge:
    """A last-written level."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def state(self) -> float:
        return self.value


def _key(name: str, labels: dict | None) -> tuple:
    if not labels:
        return (name,)
    # label values normalize to strings: ``a=1`` and ``a="1"`` are one
    # instrument, and a snapshot renders and sorts its keys as text
    return (name,) + tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """A keyed collection of instruments; get-or-create and snapshot.

    Keys are ``(name, sorted label pairs)``; the same call site asking
    twice gets the same instrument.
    """

    def __init__(self):
        self._metrics: dict[tuple, Counter | Gauge] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def _get(self, cls, name: str, labels: dict):
        key = _key(name, labels)
        with self._lock:
            m = self._metrics.get(key)
            if m is None:
                m = self._metrics[key] = cls()
        return m

    def snapshot(self) -> dict:
        """A JSON-able copy: ``{rendered_key: {"kind", "state"}}`` where
        the rendered key is ``name`` or ``name{a=1,b=x}``."""
        with self._lock:
            items = list(self._metrics.items())
        out = {}
        for key, metric in sorted(items, key=lambda kv: kv[0]):
            name = key[0]
            if len(key) > 1:
                name += "{" + ",".join(f"{k}={v}" for k, v in key[1:]) + "}"
            out[name] = {"kind": metric.kind, "state": metric.state()}
        return out


#: the process-wide registry (scheduler op counters, ad-hoc
#: instrumentation)
REGISTRY = MetricsRegistry()
