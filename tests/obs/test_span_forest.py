"""Property tests: any span nesting reconstructs a well-formed forest.

Satellite of the obs tentpole — whatever shape of nesting the code
produces (including spans created inside ``Executor`` pool workers and
re-parented on merge, and the ``.rcs`` codec pool's per-column spans),
the recorded trace must rebuild into a forest
where every child lies within its parent's interval, no span is
orphaned, and ids are deterministic under both ``fork`` and ``spawn``
start methods.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame import Table, columnar, open_rcs, save_rcs
from repro.obs import trace
from repro.obs.export import build_forest, validate_spans
from repro.parallel.executor import Executor

# a nesting shape: (name index, [child shapes]); small name alphabet so
# sibling name collisions (seq disambiguation) are exercised constantly
shapes = st.recursive(
    st.tuples(st.integers(min_value=0, max_value=2), st.just([])),
    lambda children: st.tuples(
        st.integers(min_value=0, max_value=2),
        st.lists(children, max_size=3),
    ),
    max_leaves=12,
)

NAMES = ("alpha", "beta", "gamma")


def _open(shape, counts):
    name_i, children = shape
    counts[0] += 1
    with trace.span(NAMES[name_i]):
        for child in children:
            _open(child, counts)


class TestInProcessForest:
    @given(st.lists(shapes, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_any_nesting_rebuilds_well_formed(self, forest_shapes):
        trace.enable(None)
        counts = [0]
        with trace.capture() as records:
            for shape in forest_shapes:
                _open(shape, counts)
        trace.disable()

        assert len(records) == counts[0]
        forest = validate_spans(records)  # raises on any malformation
        assert len(forest) == len(forest_shapes)

        def tally(nodes):
            return len(nodes) + sum(tally(n.children) for n in nodes)

        assert tally(forest) == counts[0]

    @given(st.lists(shapes, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_subtree_ids_deterministic_under_fixed_parent(self, forest_shapes):
        ctx = trace.SpanContext("trace-x", "parent-x")

        def run():
            trace.enable(None)
            with trace.capture() as records:
                with trace.span("run", _parent=ctx, _seq=0):
                    for shape in forest_shapes:
                        _open(shape, [0])
            trace.disable()
            return [(r["name"], r["span"], r["parent"]) for r in records]

        first = run()
        assert first == run()
        ids = [s for _, s, _ in first]
        assert len(set(ids)) == len(ids)


def _with_synthetic_root(records):
    """The executor tests hang the tree off a synthetic SpanContext; add
    the matching root record so forest validation can run (in real use
    the parent's own process writes that record to the shared file)."""
    t0 = min(r["ts"] for r in records)
    t1 = max(r["ts"] + r["dur"] for r in records)
    return records + [{
        "name": "root", "trace": "trace-exec", "span": "root-exec",
        "parent": None, "ts": t0 - 1.0, "dur": (t1 - t0) + 2.0,
        "pid": 0, "tid": 0, "attrs": {},
    }]


def _traced_work(depth: int) -> int:
    """Module-level worker (picklable under spawn) that nests spans."""
    with trace.span("work.outer", depth=depth):
        for _ in range(depth):
            with trace.span("work.inner"):
                pass
    return depth * 10


def _run_executor(backend: str, mp_context: str | None, depths: list[int]):
    ctx = trace.SpanContext("trace-exec", "root-exec")
    trace.enable(None)
    with trace.capture() as records:
        with trace.span("run", _parent=ctx, _seq=0):
            ex = Executor(backend=backend, max_workers=2,
                          mp_context=mp_context)
            out = ex.map(_traced_work, depths, label="prop")
    trace.disable()
    assert out == [d * 10 for d in depths]
    return records


class TestCrossProcessForest:
    @given(st.lists(st.integers(min_value=0, max_value=3),
                    min_size=2, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_worker_spans_rebuild_and_match_serial(self, depths):
        # serial execution is the oracle: the pool backends must produce
        # the exact same span ids and parent links, however workers
        # interleave (only timings may differ)
        def shape(records):
            return sorted((r["name"], r["span"], r["parent"])
                          for r in records)

        serial = _run_executor("serial", None, depths)
        threads = _run_executor("threads", None, depths)
        assert shape(threads) == shape(serial)
        forest = validate_spans(_with_synthetic_root(threads))
        assert len(forest) == 1  # everything under the synthetic root

    def test_fork_and_spawn_identical_ids(self):
        depths = [2, 0, 3, 1]

        def shape(records):
            return sorted((r["name"], r["span"], r["parent"])
                          for r in records)

        serial = shape(_run_executor("serial", None, depths))
        fork = shape(_run_executor("processes", "fork", depths))
        spawn = shape(_run_executor("processes", "spawn", depths))
        assert fork == spawn == serial

    def test_process_forest_children_within_parent_intervals(self):
        records = _run_executor("processes", "fork", [1, 2, 3])
        forest = validate_spans(_with_synthetic_root(records))
        (synthetic,) = forest
        (root,) = synthetic.children
        (emap,) = root.children
        assert emap.name == "executor.map"
        assert [c.name for c in emap.children] == ["executor.task"] * 3
        for task in emap.children:
            assert [c.name for c in task.children] == ["work.outer"]


class TestStorageSpans:
    """A traced ``save_rcs`` + ``load_rcs``: one ``rcs.save`` with an
    ``rcs.encode`` child per column (same ids and parents on the codec
    pool as inline), one ``rcs.decode`` per decoded column."""

    def test_decode_span_ids_pinned(self, tmp_path, monkeypatch):
        """One traced read's ``rcs.decode`` span ids and parents, pinned:
        one span per decoded column, numbered in column order under the
        caller's span; a raw or cached column takes none."""
        rng = np.random.default_rng(0)
        table = Table({
            "timestamp": np.arange(2000, dtype=np.float64),
            "node": np.repeat(np.arange(20, dtype=np.int64), 100),
            "noise": rng.integers(0, 2**63, 2000, dtype=np.uint64),
            "power": np.round(np.cumsum(rng.normal(0, 1, 2000)), 1),
        })
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", "auto")
        save_rcs(table, tmp_path / "t.rcs")
        shard = open_rcs(tmp_path / "t.rcs")
        assert shard.codecs == {"timestamp": "qdelta", "node": "delta",
                                "noise": "raw", "power": "fxor"}
        pick = ["power", "noise", "timestamp", "node"]
        trace.enable(None)
        try:
            with trace.capture() as records:
                with trace.span("run", _seq=0, _parent=trace.SpanContext(
                        "trace-pin", "root-pin")):
                    assert shard.read(pick) == table.select(pick)
                    shard.read(["node", "power"])
        finally:
            trace.disable()
        assert sorted((r["name"], r["span"], r["parent"],
                       r["attrs"].get("column")) for r in records) == [
            ("rcs.decode", "2957df7947bc1711", "afb50ee4dd0a5025", "power"),
            ("rcs.decode", "9f7ba5b06e18e17f", "afb50ee4dd0a5025", "node"),
            ("rcs.decode", "ea4688bca937c181", "afb50ee4dd0a5025",
             "timestamp"),
            ("run", "afb50ee4dd0a5025", "root-pin", None),
        ]

    @staticmethod
    def _run(table, pick, path, cap):
        ctx = trace.SpanContext("trace-exec", "root-exec")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(columnar.os, "cpu_count", lambda: 4)
            mp.setenv("REPRO_MAX_WORKERS", cap)
            mp.setenv("REPRO_RCS_COMPRESSION", "auto")
            trace.enable(None)
            with trace.capture() as records:
                with trace.span("run", _parent=ctx, _seq=0):
                    save_rcs(table, path)
                    assert open_rcs(path).read(pick) == table.select(pick)
            trace.disable()
        return records

    @given(n_columns=st.integers(min_value=1, max_value=5), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_pooled_spans_rebuild_and_match_inline(self, n_columns, data,
                                                   tmp_path_factory):
        table = Table({
            f"c{i}": np.cumsum(np.arange(300.0) % (i + 2))
            for i in range(n_columns)
        })
        pick = data.draw(st.lists(st.sampled_from(table.columns),
                                  min_size=1, unique=True))
        path = tmp_path_factory.mktemp("spans") / "t.rcs"

        def shape(records):
            return sorted((r["name"], r["span"], r["parent"],
                           r["attrs"].get("column")) for r in records)

        inline = self._run(table, pick, path, "1")
        pooled = self._run(table, pick, path, "4")
        assert shape(pooled) == shape(inline)

        (synthetic,) = validate_spans(_with_synthetic_root(pooled))
        (run,) = synthetic.children
        save = run.children[0]
        assert save.name == "rcs.save"
        assert save.record["attrs"] == {
            "rows": 300, "columns": n_columns,
            "bytes": path.stat().st_size,
        }
        assert {n.name for n in save.children} == {"rcs.encode"}
        # inline tasks finish in sibling order; the pooled ids are theirs
        assert [r["attrs"]["column"] for r in inline
                if r["name"] == "rcs.encode"] == table.columns
        decodes = run.children[1:]
        assert sorted(n.record["attrs"]["column"] for n in decodes) == (
            sorted(pick))
        assert {n.name for n in decodes} == {"rcs.decode"}
