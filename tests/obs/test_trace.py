"""Unit tests for repro.obs.trace and repro.obs.export."""

from __future__ import annotations

import json

import pytest

from repro.obs import trace
from repro.obs.export import (TraceError, build_forest, flame_summary,
                              load_trace, to_chrome, validate_spans)


@pytest.fixture(autouse=True)
def _tracing_off_after():
    yield
    trace.disable()


def test_disabled_span_is_noop():
    with trace.span("anything", a=1) as sp:
        sp.set(b=2)
        assert sp.context is None
    assert trace.current_context() is None


def test_nesting_and_record_fields(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.enable(path)
    with trace.span("root", kind="test") as root:
        with trace.span("child") as child:
            assert trace.current_span() is child
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id
        with trace.span("child"):
            pass
    trace.disable()

    records = load_trace(str(path))
    assert [r["name"] for r in records] == ["child", "child", "root"]
    root_rec = records[-1]
    assert root_rec["parent"] is None
    assert root_rec["attrs"] == {"kind": "test"}
    assert root_rec["dur"] >= 0
    c1, c2 = records[0], records[1]
    assert c1["parent"] == root_rec["span"] == c2["parent"]
    assert c1["span"] != c2["span"]  # sibling seq disambiguates


def test_deterministic_ids_below_a_parent():
    # the subtree below any explicit context has reproducible ids —
    # re-running the same task (fork, spawn, retry) regenerates them
    ctx = trace.SpanContext("tr", "parent-id")

    def run():
        trace.enable(None)
        with trace.capture() as records:
            with trace.span("task", _parent=ctx, _seq=2):
                with trace.span("a"):
                    with trace.span("leaf"):
                        pass
                with trace.span("a"):
                    pass
        trace.disable()
        return [r["span"] for r in records]

    first = run()
    assert first == run()
    assert len(set(first)) == len(first)


def test_root_ids_never_collide_across_processes():
    # roots are salted per process: a second process appending to the
    # same file must not reuse this one's root ids
    import subprocess
    import sys

    trace.enable(None)
    with trace.capture() as records:
        with trace.span("cli.query"):
            pass
    trace.disable()
    code = (
        "from repro.obs import trace\n"
        "trace.enable(None)\n"
        "with trace.capture() as r:\n"
        "    with trace.span('cli.query'):\n"
        "        pass\n"
        "trace.disable()\n"
        "print(r[0]['span'])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert out.stdout.strip() != records[0]["span"]


def test_explicit_parent_and_seq():
    trace.enable(None)
    with trace.capture() as records:
        with trace.span("root") as root:
            ctx = root.context
        with trace.span("task", _parent=ctx, _seq=5):
            pass
        with trace.span("task", _parent=ctx, _seq=6):
            pass
    trace.disable()
    by_name = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r)
    t5, t6 = by_name["task"]
    root = by_name["root"][0]
    assert t5["parent"] == root["span"]
    assert t5["trace"] == root["trace"]
    assert t5["span"] != t6["span"]


def test_exception_annotates_span_and_propagates():
    trace.enable(None)
    with trace.capture() as records:
        with pytest.raises(ValueError):
            with trace.span("boom"):
                raise ValueError("nope")
    trace.disable()
    assert records[0]["attrs"]["error"] == "ValueError: nope"


def test_enabled_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert trace.enabled_from_env() is None
    monkeypatch.setenv("REPRO_TRACE", "0")
    assert trace.enabled_from_env() is None
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert trace.enabled_from_env() == "repro-trace.jsonl"
    monkeypatch.setenv("REPRO_TRACE", "/tmp/direct.jsonl")
    assert trace.enabled_from_env() == "/tmp/direct.jsonl"


def test_merge_spans_appends_to_sink(tmp_path):
    path = tmp_path / "m.jsonl"
    trace.enable(path)
    with trace.span("parent") as parent:
        ctx = parent.context
        with trace.capture() as worker_records:
            with trace.span("task", _parent=ctx, _seq=0):
                pass
        trace.merge_spans(worker_records)
    trace.disable()
    records = load_trace(str(path))
    forest = build_forest(records)
    assert len(forest) == 1
    assert [c.name for c in forest[0].children] == ["task"]


def test_forest_validation_rejects_orphans():
    rec = {"name": "x", "trace": "t", "span": "s", "parent": "missing",
           "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 1, "attrs": {}}
    with pytest.raises(TraceError, match="orphan"):
        validate_spans([rec])


def test_forest_validation_rejects_child_outside_parent():
    parent = {"name": "p", "trace": "t", "span": "p1", "parent": None,
              "ts": 100.0, "dur": 1.0, "pid": 1, "tid": 1, "attrs": {}}
    child = {"name": "c", "trace": "t", "span": "c1", "parent": "p1",
             "ts": 200.0, "dur": 1.0, "pid": 1, "tid": 1, "attrs": {}}
    with pytest.raises(TraceError, match="outside"):
        validate_spans([parent, child])


def test_forest_validation_rejects_duplicate_ids():
    rec = {"name": "x", "trace": "t", "span": "s", "parent": None,
           "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 1, "attrs": {}}
    with pytest.raises(TraceError, match="duplicate"):
        validate_spans([rec, dict(rec)])


def test_load_trace_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "x"}\n')
    with pytest.raises(TraceError, match="missing fields"):
        load_trace(str(path))
    path.write_text("not json\n")
    with pytest.raises(TraceError, match="not JSON"):
        load_trace(str(path))


def test_flame_summary_groups_siblings(tmp_path):
    path = tmp_path / "f.jsonl"
    trace.enable(path)
    with trace.span("run"):
        for _ in range(3):
            with trace.span("task"):
                pass
    trace.disable()
    text = flame_summary(load_trace(str(path)))
    assert "run" in text
    assert "task ×3" in text
    assert "4 spans, 1 roots" in text


def test_chrome_export_shape(tmp_path):
    path = tmp_path / "c.jsonl"
    trace.enable(path)
    with trace.span("serve.query", shard=3):
        pass
    trace.disable()
    doc = to_chrome(load_trace(str(path)))
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    ev = doc["traceEvents"][0]
    assert ev["ph"] == "X"
    assert ev["cat"] == "serve"
    assert ev["args"]["shard"] == 3
    assert ev["dur"] >= 0
    json.dumps(doc)  # must be serializable


def test_multiprocess_append_shares_one_file(tmp_path):
    # two enable/disable cycles (as two processes would) append, not clobber
    path = tmp_path / "shared.jsonl"
    trace.enable(path)
    with trace.span("first"):
        pass
    trace.disable()
    trace.enable(path)
    with trace.span("second"):
        pass
    trace.disable()
    names = [r["name"] for r in load_trace(str(path))]
    assert names == ["first", "second"]
