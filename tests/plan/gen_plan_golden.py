"""Generator of ``tests/golden/plan_answers.json``: the query plan over one
seeded archive, pinned query by query.

One 36-node x 1,800 s twin's 1 Hz telemetry is archived twice — as twelve
150 s shards (un-compacted) and compacted into six 300 s shards — and the
query matrix

    level cluster / node / raw
    x width 10 / 30
    x range open / grid-aligned [60, 1260) / unaligned [97, 1234.5)
    x selection none / ``nodes`` / ``cabinets``

plus ``derived="pue"`` on every cluster width x range runs against both.
For each query it records

* the answer's per-column dtype and SHA-256 of its bytes;
* ``Query.fingerprint()``;
* every shard task's coverage and ``fragment_key``,

and checks that ``Pipeline.telemetry_series`` gives the same answer.

It also records the artifact keys ``Pipeline.cluster_power`` looks up for
the twin's ``SimulationSpec``: the canonical form of a nested dataclass.
The archive lives under a relative path inside a temporary working
directory, so the dataset root folded into the fragment keys is the same on
every machine, and the codec policy is pinned to ``auto``.

Written before a change to the plan, its cache keys or the kernels under it
and checked after it, this is what "same bits" means for them.

    PYTHONPATH=src python tests/plan/gen_plan_golden.py          # rewrite
    PYTHONPATH=src python tests/plan/gen_plan_golden.py --check  # diff
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from repro.datasets import SimulationSpec, simulate_twin
from repro.datasets.store import write_partitioned_series
from repro.pipeline import Pipeline, PipelineConfig
from repro.plan import Query, plan_query

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "plan_answers.json"

SPEC = SimulationSpec(n_nodes=36, n_jobs=120, horizon_s=1800.0, seed=7)
SHARD_S = 150.0
RANGES = {"open": (None, None), "aligned": (60.0, 1260.0),
          "unaligned": (97.0, 1234.5)}
SELECTIONS = {"all": {}, "nodes": {"nodes": (0, 5, 17, 30)},
              "cabinets": {"cabinets": (1,)}}


def answer_digests(table) -> dict:
    out = {}
    for name in table.columns:
        a = np.ascontiguousarray(table[name])
        out[name] = [a.dtype.str, hashlib.sha256(a.tobytes()).hexdigest()]
    return out


def recorded_lookups(pipe) -> list[str]:
    """Make ``pipe``'s artifact cache log every key it is asked for."""
    keys: list[str] = []
    get = pipe.cache.get

    def logged(key):
        keys.append(key)
        return get(key)

    pipe.cache.get = logged
    return keys


def queries():
    for level, width, (rname, (lo, hi)), (sname, sel) in itertools.product(
        ("cluster", "node", "raw"), (10.0, 30.0), RANGES.items(),
        SELECTIONS.items(),
    ):
        yield (f"{level} w={width:g} {rname} {sname}",
               Query(t_begin=lo, t_end=hi, width=width, level=level, **sel))
    for width, (rname, (lo, hi)) in itertools.product(
        (10.0, 30.0), RANGES.items()
    ):
        yield (f"cluster w={width:g} {rname} all pue",
               Query(t_begin=lo, t_end=hi, width=width, derived="pue"))


def archive_answers(dataset, pipe) -> dict:
    out = {"shards": [p.filename for p in dataset.partitions]}
    for label, query in queries():
        plan = plan_query(query, dataset)
        series = pipe.telemetry_series(dataset, query)
        answer = plan.execute()
        assert series == answer, label
        out[label] = {
            "answer": answer_digests(answer),
            "fingerprint": query.fingerprint(),
            "tasks": [[t.coverage, t.fragment_key] for t in plan.tasks()],
        }
    return out


def compute() -> dict:
    twin = simulate_twin(SPEC)
    telemetry = twin.sampler().sample(
        twin.builder.build(0.0, SPEC.horizon_s, 1.0))
    out = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            mock.patch.dict(os.environ, {"REPRO_RCS_COMPRESSION": "auto"}):
        pipe = Pipeline(twin, PipelineConfig(
            max_workers=1, chunk_seconds=600.0, cache_dir="artifacts"))
        lookups = recorded_lookups(pipe)
        pipe.cluster_power(10.0)
        out["cluster_power keys"] = list(lookups)

        dataset = write_partitioned_series(
            telemetry, "archive", "telemetry", day_s=SHARD_S)
        out["uncompacted"] = archive_answers(dataset, pipe)
        dataset.compact(target_rows=2 * dataset.partitions[0].n_rows)
        out["compacted"] = archive_answers(dataset, pipe)
    return out


def main(argv) -> int:
    text = json.dumps(compute(), indent=1) + "\n"
    if "--check" in argv:
        if GOLDEN.read_text() != text:
            print(f"{GOLDEN} differs from what this tree emits")
            return 1
        print(f"{GOLDEN} matches")
        return 0
    GOLDEN.write_text(text)
    print(f"wrote {GOLDEN} ({len(text):,} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
