"""Unit tests for the repro.obs metrics registry."""

from __future__ import annotations

from repro.obs.metrics import REGISTRY, Counter, Gauge, MetricsRegistry


def test_counter_inc_and_merge():
    c = Counter()
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_gauge_set_and_merge_keeps_max():
    g = Gauge()
    g.set(7)
    g.set(3)
    assert g.value == 3


def test_registry_get_or_create_is_stable():
    r = MetricsRegistry()
    assert r.counter("x") is r.counter("x")
    assert r.counter("x", a=1) is r.counter("x", a=1)
    assert r.counter("x", a=1) is not r.counter("x", a=2)
    # label order does not matter
    assert r.counter("y", a=1, b=2) is r.counter("y", b=2, a=1)


def test_registry_snapshot_merge_roundtrip():
    r = MetricsRegistry()
    r.counter("queries").inc(5)
    r.gauge("depth", node="a").set(3)

    # rendered keys are deterministic and sorted
    snap = r.snapshot()
    assert list(snap) == sorted(snap)
    assert "depth{node=a}" in snap


def test_global_registry_exists():
    c = REGISTRY.counter("obs.test.probe")
    c.inc()
    assert REGISTRY.counter("obs.test.probe").value >= 1
