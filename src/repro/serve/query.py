"""Declarative telemetry queries (the service's one request type).

A :class:`Query` names a slice of an archived telemetry store — time
range, node/cabinet selection, metric columns, coarsening interval, and
aggregation level — plus an optional derived series.  It is a frozen
dataclass so a validated query can be fingerprinted
(:func:`~repro.pipeline.cache.cache_key` over its canonical form) and used
as a result-cache key: two queries that mean the same thing hash the same
even if their selections were written in a different order.

Levels
------
``cluster``
    Coarsened per-node stats collapsed across nodes per window — the
    Dataset 1 shape (``timestamp, count_inp, sum_inp, mean_inp, max_inp``),
    the same code as :meth:`repro.pipeline.runner.Pipeline.telemetry_series`
    runs for the same query.  Exactly one metric.
``node``
    The coarsened per-node table (Dataset 0 shape): ``count/min/max/mean/
    std`` per metric per (node, window).
``raw``
    The projected, time- and node-filtered archive rows, unaggregated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.config import SUMMIT
from repro.pipeline.cache import cache_key

__all__ = ["Query", "QueryError", "LEVELS", "DERIVED"]

LEVELS = ("cluster", "node", "raw")
DERIVED = ("pue",)


class QueryError(ValueError):
    """A malformed or unanswerable query (reported to the client, not
    raised through the server)."""


def _int_tuple(values, label: str) -> tuple[int, ...] | None:
    """Sorted, deduplicated tuple of non-negative ints (or None)."""
    if values is None:
        return None
    try:
        out = sorted({int(v) for v in values})
    except (TypeError, ValueError) as err:
        raise QueryError(f"{label} must be integers: {values!r}") from err
    if out and out[0] < 0:
        raise QueryError(f"{label} must be non-negative: {values!r}")
    return tuple(out)


@dataclass(frozen=True)
class Query:
    """One declarative request against a telemetry store.

    ``t_begin``/``t_end`` bound the half-open time range (None = open
    end); ``nodes`` and ``cabinets`` select rows (a cabinet expands to its
    node range; both given = the union); ``metrics`` are the value columns
    to coarsen; ``width`` is the coarsen window; ``level`` the aggregation
    level; ``derived`` an optional derived series (``"pue"`` appends
    instantaneous PUE columns to a cluster-level result, with
    ``pue_overhead`` the memoryless facility-overhead fraction — the same
    stand-in :class:`repro.stream.operators.StreamingPUE` uses).
    """

    t_begin: float | None = None
    t_end: float | None = None
    nodes: tuple[int, ...] | None = None
    cabinets: tuple[int, ...] | None = None
    metrics: tuple[str, ...] = ("input_power",)
    width: float = SUMMIT.coarsen_window_s
    level: str = "cluster"
    derived: str | None = None
    pue_overhead: float = 0.1
    time: str = field(default="timestamp")
    by: str = field(default="node")

    def __post_init__(self):
        # normalize to canonical form so fingerprints ignore spelling
        object.__setattr__(self, "nodes", _int_tuple(self.nodes, "nodes"))
        object.__setattr__(
            self, "cabinets", _int_tuple(self.cabinets, "cabinets")
        )
        if isinstance(self.metrics, str):
            raise QueryError("metrics must be a sequence of column names")
        object.__setattr__(
            self, "metrics", tuple(dict.fromkeys(str(m) for m in self.metrics))
        )
        for name in ("t_begin", "t_end"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, float(v))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "pue_overhead", float(self.pue_overhead))

    # ---------------- validation ----------------

    def validate(self) -> "Query":
        """Raise :class:`QueryError` on any inconsistency; returns self."""
        if self.level not in LEVELS:
            raise QueryError(
                f"unknown level {self.level!r}; expected one of {LEVELS}"
            )
        if not self.metrics:
            raise QueryError("at least one metric is required")
        if not (0 < self.width < math.inf):
            raise QueryError(
                f"width must be positive and finite, got {self.width}"
            )
        for name in ("t_begin", "t_end"):
            bound = getattr(self, name)
            # +-inf stay legal: they mean an open end
            if bound is not None and math.isnan(bound):
                raise QueryError(f"{name} must not be NaN")
        if (
            self.t_begin is not None
            and self.t_end is not None
            and self.t_end <= self.t_begin
        ):
            raise QueryError(
                f"empty time range [{self.t_begin}, {self.t_end})"
            )
        if self.level == "cluster" and len(self.metrics) != 1:
            raise QueryError(
                "cluster level aggregates exactly one metric; got "
                f"{list(self.metrics)} (use level='node' for several)"
            )
        if self.derived is not None:
            if self.derived not in DERIVED:
                raise QueryError(
                    f"unknown derived series {self.derived!r}; "
                    f"expected one of {DERIVED}"
                )
            if self.level != "cluster":
                raise QueryError(
                    f"derived {self.derived!r} needs level='cluster', "
                    f"got {self.level!r}"
                )
            if not (0 <= self.pue_overhead < math.inf):
                raise QueryError(
                    "pue_overhead must be finite and >= 0, got "
                    f"{self.pue_overhead}"
                )
        if self.nodes is not None and not self.nodes:
            raise QueryError("nodes selection is empty")
        if self.cabinets is not None and not self.cabinets:
            raise QueryError("cabinets selection is empty")
        return self

    # ---------------- selections ----------------

    def node_selection(self) -> tuple[int, ...] | None:
        """The selected node ids (union of ``nodes`` and every node of the
        selected ``cabinets``, ``SUMMIT.nodes_per_cabinet`` each), or None
        for all nodes."""
        if self.nodes is None and self.cabinets is None:
            return None
        per_cab = SUMMIT.nodes_per_cabinet
        picked: set[int] = set(self.nodes or ())
        for cab in self.cabinets or ():
            picked.update(range(cab * per_cab, (cab + 1) * per_cab))
        return tuple(sorted(picked))

    # ---------------- identity & wire form ----------------

    def fingerprint(self) -> str:
        """Canonical content hash — the result-cache key.

        Built by :func:`repro.pipeline.cache.cache_key`, so the active
        storage configuration is folded in exactly as it is for pipeline
        artifacts.
        """
        return cache_key("serve.query.v1", query=self)

    def to_dict(self) -> dict:
        """JSON-safe dict (the wire form of the ``query`` field)."""
        return {
            "t_begin": self.t_begin,
            "t_end": self.t_end,
            "nodes": list(self.nodes) if self.nodes is not None else None,
            "cabinets": (
                list(self.cabinets) if self.cabinets is not None else None
            ),
            "metrics": list(self.metrics),
            "width": self.width,
            "level": self.level,
            "derived": self.derived,
            "pue_overhead": self.pue_overhead,
            "time": self.time,
            "by": self.by,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Query":
        """Build (and canonicalize) a query from its wire form.

        Unknown fields are rejected — a typoed knob must fail loudly, not
        silently run the default query.
        """
        if not isinstance(raw, dict):
            raise QueryError(f"query must be an object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise QueryError(
                f"unknown query fields {unknown}; known: {sorted(known)}"
            )
        try:
            return cls(**raw)
        except QueryError:
            raise
        except (TypeError, ValueError) as err:
            raise QueryError(f"malformed query: {err}") from err
