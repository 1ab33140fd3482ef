"""Metrics registry: counters, gauges and fixed-bucket histograms.

One process-wide :data:`REGISTRY` plus private registries for subsystems
that need isolation (each ``QueryService`` owns its own so two services
in one process never cross-contaminate).  All three instrument types are
mergeable, which is what makes cross-process accounting work: an
:class:`~repro.parallel.executor.Executor` worker accumulates into a
fresh registry, ships ``snapshot()`` home with the task result, and the
parent ``merge()``s the delta at task completion — deterministically,
because counters add, gauges keep the max, and histogram buckets add,
all of which are order-independent.

Histograms use fixed bucket bounds, so quantiles (p50/p95/p99) come from
linear interpolation over cumulative bucket counts without storing any
samples — constant memory however many observations arrive.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = ["Counter", "Gauge", "Histogram", "MetricField",
           "MetricsRegistry", "REGISTRY", "snapshot_delta"]

#: default histogram bucket upper bounds, in seconds — spans query/stage
#: latencies from 100µs to ~2min; values above the last bound land in the
#: +Inf overflow bucket
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


class Counter:
    """A monotonically meaningful additive count (merge = sum)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, value: float = 0):
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def state(self) -> float:
        return self.value

    def load(self, state: float) -> None:
        self.value = state

    def merge(self, state: float) -> None:
        self.value += state


class Gauge:
    """A last-written level (merge keeps the max — a high-water mark,
    the only order-independent choice for e.g. ``max_queue``)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self, value: float = 0):
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def state(self) -> float:
        return self.value

    def load(self, state: float) -> None:
        self.value = state

    def merge(self, state: float) -> None:
        if state > self.value:
            self.value = state


class Histogram:
    """Fixed-bucket distribution: count/sum/min/max plus per-bucket
    counts, quantiles by linear interpolation — no stored samples."""

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """The q-quantile (0..1) by linear interpolation inside the
        bucket where the cumulative count crosses ``q * count``.  Exact
        at the recorded min/max ends; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if cum + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max) if hi >= lo else lo
                frac = (rank - cum) / n
                return lo + (hi - lo) * frac
            cum += n
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def state(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def load(self, state: dict) -> None:
        self.bounds = tuple(state["bounds"])
        self.buckets = list(state["buckets"])
        self.count = int(state["count"])
        self.sum = float(state["sum"])
        self.min = float(state["min"])
        self.max = float(state["max"])

    def merge(self, state: dict) -> None:
        if tuple(state["bounds"]) != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, n in enumerate(state["buckets"]):
            self.buckets[i] += n
        self.count += int(state["count"])
        self.sum += float(state["sum"])
        self.min = min(self.min, float(state["min"]))
        self.max = max(self.max, float(state["max"]))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _key(name: str, labels: dict | None) -> tuple:
    if not labels:
        return (name,)
    # label values normalize to strings so a key survives the
    # snapshot -> merge round trip (rendered keys are text)
    return (name,) + tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """A keyed collection of instruments; get-or-create, snapshot and
    order-independent merge.

    Keys are ``(name, sorted label pairs)``; the same call site asking
    twice gets the same instrument.  ``snapshot()``/``merge()`` carry
    whole registries across process boundaries (workers → parent).
    """

    def __init__(self):
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        key = _key(name, labels)
        with self._lock:
            m = self._metrics.get(key)
            if m is None:
                m = self._metrics[key] = Histogram(bounds)
        return m

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

    def merge(self, snapshot: dict) -> None:
        """Fold a ``snapshot()`` from another registry (typically a
        worker process) into this one."""
        for rendered, entry in snapshot.items():
            key = _parse_key(rendered)
            kind = entry["kind"]
            with self._lock:
                m = self._metrics.get(key)
                if m is None:
                    cls = _KINDS[kind]
                    if cls is Histogram:
                        m = Histogram(tuple(entry["state"]["bounds"]))
                    else:
                        m = cls()
                    self._metrics[key] = m
            if m.kind != kind:
                raise ValueError(
                    f"metric {rendered!r} kind mismatch: "
                    f"{m.kind} vs {kind}")
            m.merge(entry["state"])

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


class MetricField:
    """A data descriptor mapping ``view.<attr>`` onto the registry metric
    the owner's ``_metric(attr)`` returns, so the stats views' call sites
    keep mutating plain attributes (``st.calls += 2``)."""

    __slots__ = ("attr",)

    def __set_name__(self, owner, attr):
        self.attr = attr

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._metric(self.attr).value

    def __set__(self, obj, value):
        obj._metric(self.attr).value = value


def snapshot_delta(before: dict, after: dict) -> dict:
    """What happened between two ``snapshot()``s of one registry.

    Pool workers persist across tasks, so a worker cannot ship its whole
    registry per task — it would double-count.  It snapshots around the
    task and ships only the difference: counters subtract, histograms
    subtract bucket-wise (min/max keep the after-side values — merging
    them still yields a true global min/max since they come from a
    superset of the delta's observations), gauges ship their latest
    level.  Metrics absent from ``before`` ship whole.
    """
    out = {}
    for name, entry in after.items():
        prev = before.get(name)
        kind = entry["kind"]
        if prev is None:
            out[name] = entry
            continue
        if kind == "counter":
            d = entry["state"] - prev["state"]
            if d:
                out[name] = {"kind": kind, "state": d}
        elif kind == "gauge":
            out[name] = entry
        else:
            buckets = [a - b for a, b in zip(entry["state"]["buckets"],
                                             prev["state"]["buckets"])]
            count = entry["state"]["count"] - prev["state"]["count"]
            if count:
                out[name] = {"kind": kind, "state": {
                    "bounds": entry["state"]["bounds"],
                    "buckets": buckets,
                    "count": count,
                    "sum": entry["state"]["sum"] - prev["state"]["sum"],
                    "min": entry["state"]["min"],
                    "max": entry["state"]["max"],
                }}
    return out


def _parse_key(rendered: str) -> tuple:
    if not rendered.endswith("}") or "{" not in rendered:
        return (rendered,)
    name, _, rest = rendered.partition("{")
    pairs = []
    for part in rest[:-1].split(","):
        k, _, v = part.partition("=")
        pairs.append((k, v))
    return (name,) + tuple(sorted(pairs))


#: the process-wide registry, for subsystems without their own
#: (scheduler op counters, executor internals, ad-hoc instrumentation)
REGISTRY = MetricsRegistry()
