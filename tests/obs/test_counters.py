"""Unit tests for the one counter record, ``repro.obs.counters``."""

from __future__ import annotations

import pytest

from repro.obs import Counters, CounterTable
from repro.pipeline import PipelineStats, StageStats
from repro.serve.stats import ServiceStats
from repro.stream import NodeStats, StreamStats


class Pair(Counters):
    FIELDS = ("b", "a")
    __slots__ = FIELDS


class PairTable(CounterTable):
    record_type = Pair


def test_fields_start_at_zero_and_dict_keeps_field_order():
    c = Pair()
    assert c.as_dict() == {"b": 0, "a": 0}
    assert list(c.as_dict()) == ["b", "a"]
    c.a += 2
    assert list(c.as_dict().items()) == [("b", 0), ("a", 2)]
    assert repr(c) == "Pair(b=0, a=2)"
    for cls in (StageStats, NodeStats, ServiceStats):
        rec = cls()
        assert list(rec.as_dict()) == list(cls.FIELDS)
        assert set(rec.as_dict().values()) == {0}


def test_a_misspelt_bump_raises():
    for rec in (Pair(), StageStats(), NodeStats()):
        with pytest.raises(AttributeError):
            rec.rows_inn = 1


def test_get_creates_once_in_first_use_order():
    t = PairTable()
    x = t.get("x")
    assert isinstance(x, Pair)
    assert t.get("x") is x
    t.get("w")
    assert list(t.records) == ["x", "w"]


def test_total_sums_one_field_over_records():
    t = PairTable()
    assert t.total("a") == 0
    t.get("x").a += 3
    t.get("y").a += 4
    t.get("y").b += 1
    assert (t.total("a"), t.total("b")) == (7, 1)


def test_state_dict_round_trip():
    t = PairTable()
    t.get("x").a = 1.5
    t.get("y").b = 2
    state = t.state_dict()
    assert state == {"x": {"b": 0, "a": 1.5}, "y": {"b": 2, "a": 0}}
    back = PairTable()
    back.load_state(state)
    assert back.state_dict() == state
    assert list(back.records) == ["x", "y"]
    assert back.get("x") is not t.get("x")


def test_owners_never_share_a_record():
    p1, p2 = PipelineStats(), PipelineStats()
    p1.record("fused", rows_out=5)
    assert p2.records == {}
    assert p2.get("fused") is not p1.get("fused")
    assert p2.get("fused").rows_out == 0

    s1, s2 = StreamStats(), StreamStats()
    s1.node("source").rows_in += 1
    assert s2.node("source").rows_in == 0

    v1, v2 = ServiceStats(), ServiceStats()
    v1.record_error()
    v1.record_offload()
    assert v2.as_dict() == ServiceStats().as_dict()
    assert v2.snapshot()["queries"] == 0
