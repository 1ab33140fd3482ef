"""The query plan: one declarative :class:`Query` becomes the shard-level
kernel chain over a :class:`~repro.parallel.partition.PartitionedDataset`.

This module sits below :mod:`repro.pipeline`, :mod:`repro.serve` and
:mod:`repro.stream` and imports none of them.  It is the one place that
sequences the kernels over an archive:

* **predicate** — :meth:`~repro.parallel.partition.PartitionedDataset.select_time`
  prunes shards through manifest zone maps before a byte is mapped, and a
  node/cabinet selection also prunes through
  :meth:`~repro.parallel.partition.PartitionedDataset.select_where` on the
  :data:`BY` column's zones;
* **projection** — only :data:`BY` + :data:`OUT_TIME` + the requested
  metrics are read from each surviving shard (zero-copy column maps on
  ``.rcs``);
* **kernels** — :meth:`QueryPlan.run_shard_table`, per shard: node filter
  → :func:`~repro.core.coarsen.coarsen_telemetry` →
  :func:`~repro.core.aggregate.cluster_power_series`, bit-identical to
  those kernels' single pass over the equally filtered in-memory table.
  That holds only while no coarsen window has rows in two shards, so
  :func:`plan_query` rejects a ``width`` that does not divide the shard
  edges.

Levels: ``cluster`` collapses the coarsened per-node stats across nodes
per window (the Dataset 1 shape, exactly one metric); ``node`` is the
coarsened per-node table (Dataset 0 shape); ``raw`` is the projected,
time- and node-filtered archive rows.

Shard tasks (:meth:`QueryPlan.tasks`) are independent and side-effect
free: the query service fans them out behind its fragment cache,
:meth:`repro.pipeline.runner.Pipeline.telemetry_series` fans them out
through its executor, and :meth:`QueryPlan.finalize`
merges the per-shard results either way.  Each task also carries its
**fragment identity**.  The coarsen grid is epoch-aligned
(``window_index`` puts row ``t`` in window ``k`` iff exactly
``float(k) * width <= t < float(k + 1) * width``), so when a query bound
lands on the grid no window straddles it: the shard's full aggregate (its
*fragment*) restricted to window starts in ``[lo, hi)`` is bit-identical
to aggregating the raw row slice directly.  That lets one fragment per
``(shard, kernel)`` serve every overlapping query, while unaligned bounds
fall back to a direct, uncached slice computation.

Every identity here — :meth:`Query.fingerprint`,
:meth:`QueryPlan.fragment_key` and the pipeline's artifact keys — is a
:func:`cache_key`: the SHA-256 of a canonical JSON form.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.config import SUMMIT
from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.core.pue import PUE_OVERHEAD, pue_series
from repro.frame.columnar import TIME_COLUMN
from repro.frame.encodings import compression_mode
from repro.frame.table import Table, concat
from repro.frame.window import window_index, window_span
from repro.obs import trace
from repro.parallel.partition import PartitionedDataset

__all__ = [
    "Query",
    "QueryError",
    "LEVELS",
    "DERIVED",
    "ShardTask",
    "QueryPlan",
    "plan_query",
    "cache_key",
    "CACHE_FORMAT_VERSION",
]

LEVELS = ("cluster", "node", "raw")
DERIVED = ("pue",)

#: bump when stage semantics change in a way that invalidates old artifacts;
#: it only grows, so no key of an older layout is ever addressed again
CACHE_FORMAT_VERSION = 3

#: the archive's time column, and the window-start column every
#: aggregated level carries; fragments are sliced on it
OUT_TIME = TIME_COLUMN

#: the archive's node column: node selections filter it, the node level
#: groups by it
BY = "node"

#: node ids are int64: every id a selection expands to must stay below this
_NODE_ID_LIMIT = 1 << 63


# ---------------- content keys ----------------


def _canonical(obj, nested: bool = False) -> object:
    """Reduce ``obj`` to JSON-serializable canonical form for hashing.

    A dataclass is tagged with its class name; one nested anywhere inside
    another flattens to a plain dict of its fields (``nested``).  Existing
    digests depend on exactly that shape — pipeline artifacts on disk are
    addressed by them.
    """
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; avoids 0.1+0.2 style surprises
        return repr(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        flat = {
            f.name: _canonical(getattr(obj, f.name), True)
            for f in dataclasses.fields(obj)
        }
        if nested:
            return flat
        return {"__dataclass__": type(obj).__name__, "fields": flat}
    if isinstance(obj, dict):
        return {str(k): _canonical(v, nested) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v, nested) for v in obj]
    raise TypeError(f"cannot build a cache key from {type(obj).__name__}: {obj!r}")


def cache_key(*parts, **fields) -> str:
    """SHA-256 hex digest of the canonical JSON of ``parts`` and ``fields``.

    Accepts strings, numbers, tuples/lists, dicts, and dataclasses (e.g.
    :class:`~repro.datasets.generate.SimulationSpec`).  The active
    ``REPRO_RCS_COMPRESSION`` mode is folded into every key: stage outputs
    are required to be bit-identical across compressed and raw stores (and
    the differential tests prove it), but sharing artifacts across the two
    would mask exactly the class of encode/decode bug those tests exist to
    catch.
    """
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "compression": compression_mode(),
        "parts": _canonical(list(parts)),
        "fields": _canonical(fields),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------- the query ----------------


class QueryError(ValueError):
    """A malformed or unanswerable query (reported to the client, not
    raised through the server)."""


def _integral(value) -> int:
    """``value`` as an int; a bool, a fraction or a non-number raises."""
    if type(value) is int:  # what the wire and most callers send
        return value
    out = int(value)  # OverflowError for ±inf, ValueError for NaN
    if isinstance(value, (bool, np.bool_)) or out != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


def _int_tuple(values, label: str, span: int = 1) -> tuple[int, ...] | None:
    """Sorted, deduplicated tuple of non-negative integer ids (or None).

    Each id stands for ``span`` consecutive node ids (a cabinet's nodes),
    and the last of them must fit int64.
    """
    if values is None:
        return None
    try:
        out = sorted({_integral(v) for v in values})
    except (TypeError, ValueError, OverflowError) as err:
        raise QueryError(f"{label} must be integers: {values!r}") from err
    if out and out[0] < 0:
        raise QueryError(f"{label} must be non-negative: {values!r}")
    if out and (out[-1] + 1) * span > _NODE_ID_LIMIT:
        raise QueryError(
            f"{label} {out[-1]} selects node ids that do not fit int64"
        )
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
    :data:`~repro.core.pue.PUE_OVERHEAD` the memoryless facility-overhead
    fraction — the same stand-in
    :class:`repro.stream.operators.StreamingPUE` uses).

    Frozen and canonicalized on construction, so two queries that mean
    the same thing have the same :meth:`fingerprint` even if their
    selections were written in a different order.
    """

    t_begin: float | None = None
    t_end: float | None = None
    nodes: tuple[int, ...] | None = None
    cabinets: tuple[int, ...] | None = None
    metrics: tuple[str, ...] = ("input_power",)
    width: float = SUMMIT.coarsen_window_s
    level: str = "cluster"
    derived: str | None = None

    def __post_init__(self):
        # normalize to canonical form so fingerprints ignore spelling
        object.__setattr__(self, "nodes", _int_tuple(self.nodes, "nodes"))
        object.__setattr__(self, "cabinets", _int_tuple(
            self.cabinets, "cabinets", SUMMIT.nodes_per_cabinet
        ))
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
        if self.nodes is not None and not self.nodes:
            raise QueryError("nodes selection is empty")
        if self.cabinets is not None and not self.cabinets:
            raise QueryError("cabinets selection is empty")
        return self

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

    def fingerprint(self) -> str:
        """Canonical content hash — the result-cache key (a
        :func:`cache_key`, so the active storage configuration is folded
        in exactly as it is for pipeline artifacts)."""
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
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Query":
        """Build (and canonicalize) a query from its wire form.

        Unknown fields are rejected — a typoed knob must fail loudly, not
        silently run the default query.
        """
        if not isinstance(raw, dict):
            raise QueryError(f"query must be an object, got {type(raw).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
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


# ---------------- the plan ----------------


@dataclass(frozen=True)
class ShardTask:
    """One independent unit of a plan's fan-out.

    ``coverage`` classifies how the query's time range lands on the shard:

    * ``"full"`` — the range covers every row, so the task's answer *is*
      the shard's full fragment (cacheable under ``fragment_key``);
    * ``"aligned"`` — partial coverage whose constrained bound(s) lie
      exactly on the coarsen-window grid: the full fragment, restricted
      to window starts in ``[lo, hi)``
      (:meth:`QueryPlan.slice_fragment`), is bit-identical to computing
      the slice directly — so the task can be served from (and populate)
      the fragment cache;
    * ``"partial"`` — an unaligned bound: a boundary window would
      aggregate a different row subset than the full fragment's, so the
      task computes its exact row slice directly and is never cached;
    * ``"raw"`` — no aggregation kernels: the shard's projected,
      node-filtered row slice, never cached (no ``fragment_key``).

    ``lo``/``hi`` are the task's slice bounds.  On the kernel levels an
    unconstrained side is widened to ±inf — canonical, so every query that
    fully covers a shard shares the same fragment regardless of its own
    range; a raw task carries the query's range as planned.
    """

    index: int
    lo: float
    hi: float
    coverage: str
    fragment_key: str | None = None


@dataclass
class QueryPlan:
    """An executable plan: which shards to touch and what to do per shard.

    ``shards`` are the manifest indices that survived zone-map pruning;
    ``n_shards_total`` lets callers report how many were skipped.
    """

    query: Query
    dataset: PartitionedDataset
    projection: list[str]
    t_lo: float
    t_hi: float
    shards: list[int]
    n_shards_total: int
    node_ids: tuple[int, ...] | None = None
    _node_array: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_shards_pruned(self) -> int:
        return self.n_shards_total - len(self.shards)

    @property
    def rows_in(self) -> int:
        """Manifest row count across the shards the plan will touch."""
        return sum(self.dataset.partitions[i].n_rows for i in self.shards)

    def _filter_nodes(self, table: Table) -> Table:
        if self._node_array is None:
            return table
        mask = np.isin(
            np.asarray(table[BY]), self._node_array
        )
        return table if mask.all() else table.filter(mask)

    def _grid_aligned(self, value: float) -> bool:
        """True when ``value`` sits exactly on the coarsen-window grid —
        tested with the same guarded arithmetic ``window_index`` uses, so
        "aligned" means precisely "no window straddles this bound"."""
        width = self.query.width
        k = int(window_index(
            np.asarray([value], dtype=np.float64), width
        )[0])
        return float(k) * width == value

    def fragment_key(self, index: int) -> str:
        """Cache key of shard ``index``'s full fragment.

        Folds in the shard's identity — its generation-stamped filename
        plus row/byte counts and time zone bounds, so shards rewritten by
        :meth:`~repro.parallel.partition.PartitionedDataset.compact` can
        never alias a stale fragment — and everything that shapes the
        fragment: level, metrics, width, grouping columns, and the node
        selection.  The query's own time range is deliberately absent:
        every query overlapping the shard shares one fragment.
        """
        meta = self.dataset.partitions[index]
        zone = meta.zone[OUT_TIME]
        q = self.query
        return cache_key(
            "serve.fragment.v1",
            dataset=[self.dataset.name, str(self.dataset.root)],
            shard=[meta.filename, meta.n_rows, meta.n_bytes,
                   meta.t_begin, meta.t_end,
                   zone["min"], zone["max"]],
            kernel=[q.level, q.width, list(q.metrics), BY, OUT_TIME,
                    None if self.node_ids is None else list(self.node_ids)],
        )

    def tasks(self) -> list[ShardTask]:
        """The plan's independent fan-out units, in shard-time order.

        One task per surviving shard: kernel-level tasks are classified
        by fragment reusability (see :class:`ShardTask`), raw-level ones
        read the query's range uncached.
        """
        if self.query.level == "raw":
            return [ShardTask(i, self.t_lo, self.t_hi, "raw")
                    for i in self.shards]
        out = []
        for i in self.shards:
            data_lo, data_hi, incl = self.dataset.time_bounds(i)
            free_lo = self.t_lo <= data_lo
            free_hi = self.t_hi > data_hi if incl else self.t_hi >= data_hi
            lo = -np.inf if free_lo else self.t_lo
            hi = np.inf if free_hi else self.t_hi
            if free_lo and free_hi:
                out.append(ShardTask(i, lo, hi, "full",
                                     self.fragment_key(i)))
            elif (free_lo or self._grid_aligned(self.t_lo)) and (
                free_hi or self._grid_aligned(self.t_hi)
            ):
                out.append(ShardTask(i, lo, hi, "aligned",
                                     self.fragment_key(i)))
            else:
                out.append(ShardTask(i, lo, hi, "partial"))
        return out

    def run_fragment(self, index: int) -> Table:
        """Shard ``index``'s full fragment: the kernel chain over every
        row (the unit the service's fragment cache stores)."""
        with trace.span("plan.fragment", shard=index):
            return self.run_shard_table(
                self.dataset.read_time_range(
                    index, -np.inf, np.inf, columns=self.projection,
                )
            )

    def slice_fragment(self, fragment: Table, lo: float, hi: float) -> Table:
        """Restrict a full fragment to window starts in ``[lo, hi)``.

        Bit-identical to computing the row slice directly when ``lo`` /
        ``hi`` are grid-aligned (or ±inf): the per-group kernels reduce
        each window independently (``reduceat`` over runs), and aligned
        bounds mean no window's rows straddle the cut.
        """
        t = np.asarray(fragment[OUT_TIME])
        mask = (t >= lo) & (t < hi)
        return fragment if mask.all() else fragment.filter(mask)

    def run_task(self, task: ShardTask) -> Table:
        """Execute one task directly (no fragment cache involved — the
        service layers caching on top via :meth:`run_fragment` +
        :meth:`slice_fragment` for ``full``/``aligned`` tasks)."""
        if task.coverage == "full":
            return self.run_fragment(task.index)
        return self.run_shard_table(
            self.dataset.read_time_range(
                task.index, task.lo, task.hi, columns=self.projection,
            )
        )

    def finalize(self, tables: list[Table]) -> Table:
        """Merge per-shard results into the query's answer table.

        :func:`plan_query` has checked that no coarsen window has rows in
        two shards, so per-shard aggregation followed by this merge
        matches one global pass; the final sort restores the single-pass
        row order (``timestamp`` for cluster level, group-major for node
        level, archive order for raw).  A raw answer is always concatenated,
        even from one table, so it owns its arrays instead of borrowing the
        shard's mapping.
        """
        q = self.query
        tables = [t for t in tables if t.n_rows]
        if not tables:
            return self._empty_result()
        if q.level == "raw":
            return concat(tables)
        merged = concat(tables) if len(tables) > 1 else tables[0]
        if q.level == "node":
            merged = merged.sort([BY, OUT_TIME])
        else:
            merged = merged.sort(OUT_TIME)
        return self._derive(merged)

    def _empty_result(self) -> Table:
        """A zero-row table with the level's exact schema (run the same
        kernels over an empty projected slice)."""
        empty = self.dataset.read_time_range(
            self.shards[0] if self.shards else 0,
            -np.inf, -np.inf, columns=self.projection,
        )
        if self.query.level == "raw":
            return empty
        out = self.run_shard_table(empty)
        return self._derive(out) if self.query.level == "cluster" else out

    def run_shard_table(self, sub: Table) -> Table:
        """The per-table kernel chain: node filter → coarsen → aggregate,
        applied to one projected slice of the archive.

        This is the interface the plan's extensions build on: a persisted
        10 s level starts from its output at canonical parameters, a
        streaming operator runs it over each closed prefix, and a job
        level adds its interval join after the coarsen.  Its output
        depends only on the rows of ``sub``, never on which shard or
        batch they came from.
        """
        q = self.query
        sub = self._filter_nodes(sub)
        if q.level == "raw":
            return sub
        coarse = coarsen_telemetry(sub, list(q.metrics), width=q.width)
        return (
            coarse if q.level == "node"
            else cluster_power_series(coarse, value=q.metrics[0])
        )

    def _derive(self, series: Table) -> Table:
        """Append the derived columns (cluster level only)."""
        q = self.query
        if q.derived != "pue":
            return series
        it = np.asarray(series["sum_inp"], dtype=np.float64)
        return series.with_column(
            "pue", pue_series(it, PUE_OVERHEAD * it)
        )

    def execute(self) -> Table:
        """Run every task serially and finalize (the in-process reference
        path; the server fans :meth:`run_task` out across its worker pool
        and layers the fragment cache on top)."""
        return self.finalize([self.run_task(t) for t in self.tasks()])


def _reject_straddled_windows(
    query: Query, dataset: PartitionedDataset, shards: list[int]
) -> None:
    """Raise :class:`QueryError` when a coarsen window has rows in two of
    ``shards``.

    Per-shard aggregation equals one global pass only if every
    ``(group, window)`` lives in one shard; a straddled window would come
    back once per shard, silently.  Decided from the manifest alone (the
    time column's zone ``min``/``max``, no shard opened): in shard order,
    each shard's last window must come before the next one's first.
    """
    spans = []
    for i in shards:
        lo, hi, from_zone = dataset.time_bounds(i)
        if from_zone:  # otherwise no finite timestamp, so no window
            spans.append((dataset.partitions[i].filename, lo, hi))
    if len(spans) < 2:
        return
    win = window_index(
        np.asarray([s[1:] for s in spans], dtype=np.float64), query.width
    )
    met = np.flatnonzero(win[:-1, 1] >= win[1:, 0])
    if not met.size:
        return
    k = int(met[0])
    (file_a, _, max_a), (file_b, min_b, _) = spans[k], spans[k + 1]
    if min_b <= max_a:
        why = (
            f"their time ranges overlap ({file_a} reaches {max_a:g}, "
            f"{file_b} starts at {min_b:g}: un-compacted appends); "
            "compact the dataset first"
        )
    else:
        start, end = window_span(int(win[k, 1]), query.width)
        why = (
            f"window [{start:g}, {end:g}) has rows in both; use a width "
            "that divides the shard extent"
        )
    raise QueryError(
        f"width {query.width:g} would aggregate one window in two shards "
        f"of dataset {dataset.name!r}, {file_a} and {file_b}, and answer "
        f"it twice: {why}"
    )


def plan_query(query: Query, dataset: PartitionedDataset) -> QueryPlan:
    """Validate ``query`` against ``dataset`` and build its plan.

    Raises :class:`QueryError` for queries the store cannot answer:
    unknown metric columns, a dataset without :data:`BY` or
    :data:`OUT_TIME`, an empty dataset, or — for the
    aggregating levels — a ``width`` under which some coarsen window would
    have rows in two of the surviving shards.
    """
    query.validate()
    if not dataset.partitions:
        raise QueryError(f"dataset {dataset.name!r} is empty")
    known = dataset.column_names
    missing = [
        c for c in (*query.metrics, OUT_TIME, BY) if c not in known
    ]
    if missing:
        raise QueryError(
            f"dataset {dataset.name!r} has no columns {missing}; "
            f"available: {known}"
        )

    projection = list(
        dict.fromkeys([BY, OUT_TIME, *query.metrics])
    )
    t_lo = -np.inf if query.t_begin is None else query.t_begin
    t_hi = np.inf if query.t_end is None else query.t_end

    with trace.span("plan.query", level=query.level) as sp:
        shards = dataset.select_time(t_lo, t_hi)
        node_ids = query.node_selection()
        node_array = None
        if node_ids is not None:
            node_array = np.asarray(node_ids, dtype=np.int64)
            keep = set(
                dataset.select_where(BY, float(node_ids[0]),
                                     float(node_ids[-1]))
            )
            shards = [i for i in shards if i in keep]
        sp.set(shards=len(shards),
               pruned=dataset.n_partitions - len(shards))
        if query.level != "raw":
            _reject_straddled_windows(query, dataset, shards)

    return QueryPlan(
        query=query,
        dataset=dataset,
        projection=projection,
        t_lo=float(t_lo),
        t_hi=float(t_hi),
        shards=shards,
        n_shards_total=dataset.n_partitions,
        node_ids=node_ids,
        _node_array=node_array,
    )
