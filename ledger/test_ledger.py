"""Tests of the benchmark itself: ``python -m pytest ledger/`` (< 60 s).

Everything runs ``--quick`` sized and in this process, so a test can
monkeypatch the program the way the sensitivity self-test does.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from ledger import catalog, compare, run
from ledger.harness import ROOT

UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
NAME = re.compile(catalog.NAME_CHARS)
QUICK_S = run.QUICK_SECONDS


# ---------------- the contract file ----------------


def test_benchmark_json_is_the_catalog():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == catalog.benchmark_json()


def test_benchmark_json_meets_the_contract():
    doc = catalog.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(set(names)) == len(names), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in doc["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    n_runs = 4 + 22 * len(doc["workloads"])
    assert n_runs * (doc["run_seconds"] + 8) <= 3420, "no room for set-up"


def test_every_layer_metric_declares_what_it_should_move():
    targets = {"setup_s", "peak_rss_mb", "bytes_per_row", "failed",
               "part1_per_s", "part2_per_s"}
    for wl in catalog.WORKLOADS.values():
        targets |= {wl.part1, wl.part2}
    for m in catalog.PER_LAYER:
        assert m.layer, m.name
        if m.layer in ("ledger", "host"):
            assert m.moves == (), f"{m.name} explains a run, moves nothing"
            continue
        assert m.moves, f"{m.name} declares no end-to-end target"
        for pair in m.moves:
            workload, metric = pair.split("/")
            assert workload == "*" or workload in catalog.WORKLOADS, pair
            assert metric in targets, pair


# ---------------- the comparator ----------------


def _runs(tmp_path, name, values, metric="part1_per_s"):
    path = tmp_path / name
    with open(path, "w") as fh:
        for v in values:
            fh.write(json.dumps({
                "workload": "archive_cycle", "trace": 0,
                "metrics": {metric: {"value": v, "unit": "1/s"}},
            }) + "\n")
    return path


BOUND = {m.name: m.bound for m in catalog.END_TO_END}["part1_per_s"]
TIGHT = [100.0, 100.5, 101.0]                      # spread far inside
WIDE = [100.0 * (1 - BOUND), 100.0, 100.0 * (1 + BOUND)]  # spread > bound


def _scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("a, b, status", [
    (TIGHT, _scaled(TIGHT, 1 - BOUND / 2), "ok"),
    (TIGHT, _scaled(TIGHT, 1 - BOUND * 1.2), "regressed"),
    (TIGHT, _scaled(TIGHT, 1 + BOUND * 1.2), "ok"),
    # spread wider than the bound, sides overlap: nothing can be said
    (WIDE, _scaled(WIDE, 0.97), "unresolved"),
    # as wide, but every run of B beats every run of A
    (WIDE, _scaled(WIDE, 2.0), "ok"),
    # as wide, and every run of B loses to every run of A
    (WIDE, _scaled(WIDE, 0.4), "regressed"),
])
def test_compare_verdicts(tmp_path, a, b, status):
    rows = compare.compare(_runs(tmp_path, "a", a), _runs(tmp_path, "b", b))
    assert [r["status"] for r in rows] == [status]
    assert rows[0]["ratio"] == pytest.approx(b[1] / a[1])
    code = compare.main([str(tmp_path / "a"), str(tmp_path / "b")])
    assert code == (1 if status == "regressed" else 0)


def test_compare_reads_lower_is_better(tmp_path):
    a = _runs(tmp_path, "a", [2.0, 2.0, 2.1], "setup_s")
    b = _runs(tmp_path, "b", [4.0, 4.0, 4.1], "setup_s")
    assert compare.compare(a, b)[0]["status"] == "regressed"
    assert compare.compare(b, a)[0]["status"] == "ok"


# ---------------- runs ----------------


def _exact(result: dict) -> dict:
    return {m.name: result["metrics"][m.name]["value"]
            for m in catalog.PER_LAYER if m.exact}


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_exact_counts_repeat_and_follow_the_seed(name):
    first = run.run_workload(name, 1, QUICK_S, traced=True, quick=True)
    again = run.run_workload(name, 1, QUICK_S, traced=True, quick=True)
    other = run.run_workload(name, 2, QUICK_S, traced=True, quick=True)
    for result in (first, again, other):
        assert result["correct"] and result["failed"] == 0, result["failures"]
        assert set(result["metrics"]) == {m.name for m in catalog.PER_LAYER}
    assert _exact(first) == _exact(again)
    # cosim_backlog schedules one job population for every seed (its
    # module says why); the seed places it on different nodes
    seeded = ((lambda r: r["detail"]["schedule_digest"])
              if name == "cosim_backlog" else _exact)
    assert seeded(first) == seeded(again)
    assert seeded(first) != seeded(other), "--seed does not reach the inputs"
    share = first["metrics"]["ledger.unattributed_share"]["value"]
    assert 0.0 <= share < 1.0


def test_end_to_end_pass_prints_every_metric_and_the_contract_line():
    result = run.run_workload("stream_replay", 3, QUICK_S, traced=False,
                              quick=True)
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in catalog.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    line = json.loads(run._contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for key in ("part1_per_s", "part2_per_s"):
        stats = result["detail"][key]
        assert stats["blocks"] >= 3 and stats["slots"] >= 1
        assert stats["median"] <= result["metrics"][key]["value"]


def test_doubled_decode_is_flagged_and_attributed(tmp_path, monkeypatch):
    """Sensitivity: slow one layer down and the ledger must both flag the
    end-to-end metric it feeds and name the layer."""
    import repro.frame.columnar as columnar

    def runs(path):
        with open(path, "w") as fh:
            for seed in (1, 2, 3):
                result = run.run_workload("archive_cycle", seed, 1.0,
                                          traced=False, quick=True)
                assert result["correct"]
                fh.write(json.dumps(result) + "\n")
        traced = run.run_workload("archive_cycle", 1, QUICK_S, traced=True,
                                  quick=True)
        return path, traced["metrics"]

    base, base_layers = runs(tmp_path / "base.json")

    real = columnar.decode_column

    def twice_as_slow(*args, **kwargs):
        t0 = time.perf_counter()
        out = real(*args, **kwargs)
        deadline = t0 + 2.0 * (time.perf_counter() - t0)
        while time.perf_counter() < deadline:
            pass
        return out

    # where repro.frame.columnar binds the name: the reader's own call
    monkeypatch.setattr(columnar, "decode_column", twice_as_slow)
    slow, slow_layers = runs(tmp_path / "slow.json")

    rows = {(r["workload"], r["metric"]): r
            for r in compare.compare(base, slow)}
    scan = rows["archive_cycle", "part2_per_s"]
    assert scan["alias"] == "scan_rows_per_s"
    assert scan["status"] == "regressed", scan
    assert compare.main([str(base), str(slow)]) == 1

    def value(layers, key):
        return layers[key]["value"]

    decode = "frame.encodings.decode_mb_per_s"
    assert value(slow_layers, decode) < 0.65 * value(base_layers, decode)
    # the layer next door did not move by anything like that
    encode = "frame.encodings.encode_mb_per_s"
    assert value(slow_layers, encode) > 0.65 * value(base_layers, encode)
    assert (value(slow_layers, "frame.encodings.encoded_ratio")
            == value(base_layers, "frame.encodings.encoded_ratio"))
