"""Per-layer spans recorded from outside the program.

The traced pass times calls into each layer's public functions without
touching ``src/``: :class:`Recording` rebinds those functions, wherever
``repro`` modules bound them, to wrappers that open a
:func:`repro.obs.trace.span` named ``<layer>:<call>`` and attach the
counts a rate needs (rows, bytes).  Workload code opens the same kind of
span around its own calls with :func:`repro.obs.span`.  With tracing off a
span is one branch, so the untraced pass runs the identical code.

:class:`Spans` turns the recorded file into sums per span name and a
wall-clock attribution per layer.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

from repro.obs import load_trace, trace

#: the span every traced block runs under
BLOCK = "ledger:block"


def _rows(table) -> int:
    return int(getattr(table, "n_rows", 0))


def _targets():
    """``(function name or (class, method), span name, meter)`` per
    wrapped entry point; ``meter(args, kwargs, out)`` returns the span's
    count attrs (``args[0]`` is ``self`` for methods).

    A function is wrapped under its *name* in every ``repro`` module that
    binds it (``from x import f`` copies the binding), around whatever is
    bound there at the time — so a test that slows one binding down is
    timed, slowdown included.
    """
    from repro.frame.columnar import RcsFile
    from repro.parallel.partition import PartitionedDataset as Ds
    from repro.workload import (AllocationIntervalIndex,
                                ClusterTraceBuilder, Scheduler)

    def encoded(args, kwargs, out):
        raw = int(args[0].nbytes)
        return {"raw": raw, "enc": raw if out is None else len(out[1])}

    def projected(args, kwargs, out):
        columns = args[1] if len(args) > 1 else kwargs.get("columns")
        return {"projected": columns is not None}

    def rows_in(args, kwargs, out):
        return {"rows": _rows(args[0])}

    def rows_out(args, kwargs, out):
        return {"rows": _rows(out)}

    part = "parallel.partition:"
    return [
        ("encode_column", "frame.encodings:encode", encoded),
        ("decode_column", "frame.encodings:decode",
         lambda a, kw, out: {"raw": int(out.nbytes)}),
        ("save_rcs", "frame.columnar:save",
         lambda a, kw, out: {"bytes": int(out)}),
        ("open_rcs", "frame.columnar:open", None),
        ((RcsFile, "read"), "frame.columnar:read", projected),
        ((Ds, "append"), part + "append", None),
        ((Ds, "compact"), part + "compact", None),
        ((Ds, "select_time"), part + "select_time", None),
        ((Ds, "read"), part + "read", rows_out),
        ((Ds, "read_time_range"), part + "read_time_range", rows_out),
        ((Ds, "to_table"), part + "to_table", rows_out),
        ("window_aggregate", "frame.window:aggregate", rows_in),
        ("group_by", "frame.groupby:group_by", rows_in),
        ("coarsen_telemetry", "core:coarsen", rows_in),
        ("cluster_power_series", "core:aggregate", rows_in),
        ((Scheduler, "run"), "workload.scheduler:run", None),
        ((ClusterTraceBuilder, "build"), "workload.traces:build",
         lambda a, kw, out: {"cells": int(out.node_input_w.size)}),
        ((AllocationIntervalIndex, "active_rows"),
         "workload.traces:active_rows", None),
    ]


def _wrap(fn, name: str, meter):
    def traced(*args, **kwargs):
        with trace.span(name) as sp:
            out = fn(*args, **kwargs)
            if meter is not None:
                sp.set(**meter(args, kwargs, out))
            return out

    traced.__wrapped__ = fn
    return traced


def _bindings(name: str) -> list[tuple[object, str]]:
    """Every ``(repro module, name)`` that binds a function ``name``."""
    return [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None
        and (mod_name == "repro" or mod_name.startswith("repro."))
        and callable(vars(mod).get(name))
    ]


class Recording:
    """Context manager: wrappers installed and tracing on, to ``path``."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Recording":
        for target, name, meter in _targets():
            places = [target] if isinstance(target, tuple) \
                else _bindings(target)
            for owner, attr in places:
                fn = vars(owner)[attr]
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, _wrap(fn, name, meter))
        trace.enable(self.path)
        return self

    def __exit__(self, *exc) -> None:
        trace.disable()
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Spans:
    """The ``<layer>:<call>`` spans of a recorded trace file.

    The program's own spans (``pipeline.stage``, ``executor.task`` ...)
    are kept only as links: a ledger span's parent is its nearest ledger
    ancestor.  A span opened on a pool thread that carries no context
    (``RcsFile.read``'s decode pool) is adopted by the innermost ledger
    span whose interval contains its midpoint.
    """

    def __init__(self, path: Path):
        records = load_trace(str(path)) if Path(path).exists() else []
        by_id = {r["span"]: r for r in records}
        self.records = [r for r in records if ":" in r["name"]]
        self.children: dict[str, list[dict]] = defaultdict(list)
        self.parent: dict[str, dict | None] = {}
        orphans = []
        for rec in self.records:
            up = by_id.get(rec["parent"])
            while up is not None and ":" not in up["name"]:
                up = by_id.get(up["parent"])
            self.parent[rec["span"]] = up
            if up is not None:
                self.children[up["span"]].append(rec)
            elif rec["name"] != BLOCK:
                orphans.append(rec)
        orphan_ids = {r["span"] for r in orphans}
        for rec in orphans:
            mid = rec["ts"] + rec["dur"] / 2
            hosts = [r for r in self.records
                     if r["span"] not in orphan_ids
                     and r["ts"] <= mid <= r["ts"] + r["dur"]]
            if hosts:
                host = min(hosts, key=lambda r: r["dur"])
                self.parent[rec["span"]] = host
                self.children[host["span"]].append(rec)

    def named(self, name: str, under: str | None = None) -> list[dict]:
        out = [r for r in self.records if r["name"] == name]
        if under is not None:
            out = [r for r in out if self._has_ancestor(r, under)]
        return out

    def _has_ancestor(self, rec: dict, name: str) -> bool:
        up = self.parent.get(rec["span"])
        while up is not None:
            if up["name"] == name:
                return True
            up = self.parent.get(up["span"])
        return False

    def total(self, name: str, attr: str | None = None,
              under: str | None = None, where=None) -> float:
        """Summed duration (or summed ``attr``) of the spans named
        ``name``."""
        recs = self.named(name, under)
        if where is not None:
            recs = [r for r in recs if where(r["attrs"])]
        if attr is None:
            return sum(r["dur"] for r in recs)
        return sum(r["attrs"].get(attr, 0) for r in recs)

    def count(self, name: str, under: str | None = None, where=None) -> int:
        recs = self.named(name, under)
        if where is not None:
            recs = [r for r in recs if where(r["attrs"])]
        return len(recs)

    def layer_seconds(self) -> dict[str, float]:
        """Wall-clock seconds of the traced blocks attributed per layer
        (the ledger's own ``ledger:*`` spans keep their full names).

        Each span keeps its self time (duration minus what its children
        cover); children running in parallel share the wall-clock they
        cover in proportion to their durations, so the shares of one
        block add up to the block's duration.
        """
        out: dict[str, float] = defaultdict(float)

        def visit(rec: dict, budget: float) -> None:
            name = rec["name"]
            if name.startswith("ledger:") and name != BLOCK:
                out[name] += budget  # the ledger's own work, kids and all
                return
            kids = self.children.get(rec["span"], [])
            lo, hi = rec["ts"], rec["ts"] + rec["dur"]
            covered = _union([
                (max(lo, k["ts"]), min(hi, k["ts"] + k["dur"]))
                for k in kids if k["ts"] < hi and k["ts"] + k["dur"] > lo
            ])
            share = covered / rec["dur"] if rec["dur"] > 0 else 0.0
            layer = name if name == BLOCK else name.split(":")[0]
            out[layer] += budget * (1.0 - share)
            kid_total = sum(k["dur"] for k in kids)
            for k in kids:
                if kid_total > 0:
                    visit(k, budget * share * k["dur"] / kid_total)

        for rec in self.named(BLOCK):
            visit(rec, rec["dur"])
        return dict(out)


def per(total: float, count: float, scale: float = 1.0) -> float:
    """``total / count * scale``; 0 when the layer did no work."""
    return total / count * scale if count else 0.0


def storage_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer values of the storage and kernel layers, from whatever
    wrapped calls the recorded blocks made."""
    t, n = spans.total, spans.count
    enc, dec = "frame.encodings:encode", "frame.encodings:decode"
    save, opened, read = ("frame.columnar:save", "frame.columnar:open",
                          "frame.columnar:read")
    part = "parallel.partition:"

    def projected(attrs) -> bool:
        return bool(attrs.get("projected"))

    def rate(name: str) -> float:
        return per(t(name, "rows"), t(name))

    return {
        "frame.encodings.encode_mb_per_s": per(t(enc, "raw") / 1e6, t(enc)),
        "frame.encodings.decode_mb_per_s": per(t(dec, "raw") / 1e6, t(dec)),
        "frame.encodings.encoded_ratio": per(t(enc, "enc"), t(enc, "raw")),
        "frame.columnar.save_ms_per_shard": per(t(save), n(save), 1e3),
        "frame.columnar.open_us_per_shard": per(t(opened), n(opened), 1e6),
        "frame.columnar.read_projected_ms_per_shard": per(
            t(read, where=projected), n(read, where=projected), 1e3),
        "parallel.partition.append_ms_per_shard":
            per(t(part + "append"), n(part + "append"), 1e3),
        "parallel.partition.compact_s":
            per(t(part + "compact"), n(part + "compact")),
        "parallel.partition.compact_rewritten_bytes": per(
            t(save, "bytes", under=part + "compact"), n(part + "compact")),
        "parallel.partition.select_time_us":
            per(t(part + "select_time"), n(part + "select_time"), 1e6),
        "parallel.partition.read_time_range_ms": per(
            t(part + "read_time_range"), n(part + "read_time_range"), 1e3),
        "parallel.partition.to_table_rows_per_s": rate(part + "to_table"),
        "frame.window.aggregate_rows_per_s": rate("frame.window:aggregate"),
        "frame.groupby.rows_per_s": rate("frame.groupby:group_by"),
        "core.coarsen_rows_per_s": rate("core:coarsen"),
        "core.aggregate_rows_per_s": rate("core:aggregate"),
    }
