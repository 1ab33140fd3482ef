"""Generator of ``tests/golden/cosim_arrays.json``: the schedule → allocation
→ watts chain, pinned array by array.

The first 16 hex digits of a SHA-256 (dtype, shape, bytes) of

* every :class:`~repro.workload.traces.TraceArrays` array of three seeded
  shapes — a 72-node x 600-job twin at 1 Hz, a 180-node x 1,500-job twin at
  10 s, and a 3,000-job ``synthetic_catalog`` on the full 4,626-node
  machine at 10 s — on windows offset from the sample grid (``t0`` ends in
  ``5.0``), each x ``per_gpu`` x ``track_alloc``;
* ``twin.cluster_power(10.0)`` and every column of
  ``twin.job_series(components=True)`` on the 72-node twin (the
  ``datasets.generate`` half of the chain);
* all four parts of ``ScheduleResult`` for three seeds under two drain
  windows, and ``PowerAwareScheduler.run_capped``'s schedule, commitment
  series and ``n_power_delayed`` at a 40 % cap;
* the same two runs on a 6,000-job full-machine catalog whose submits
  arrive in waves, so the pending queue runs ~4,000 deep (plain) and
  ~5,700 deep (capped) — the backlog regime of the ledger's
  ``cosim_backlog``, where backfill depth and queue rescans matter.

Written before a change to the painter, the power kernel or the scheduler
core and checked after it, this is what "same bits" means for them.

    PYTHONPATH=src python tests/workload/gen_cosim_golden.py          # rewrite
    PYTHONPATH=src python tests/workload/gen_cosim_golden.py --check  # diff
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from repro.config import SUMMIT
from repro.datasets import SimulationSpec, simulate_twin
from repro.workload import (ClusterTraceBuilder, JobCatalog,
                            PowerAwareScheduler, Scheduler,
                            synthetic_catalog)

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "cosim_arrays.json"

TRACE_ARRAYS = ("times", "node_input_w", "node_cpu_w", "node_gpu_w",
                "gpu_power_w", "node_alloc")
DRAINS = ((20_000.0, 30_000.0), (90_000.0, 100_000.0))
SCHED_HORIZON = 2 * 86_400.0
#: submit-time quantum of the deep-queue entry (the ledger's
#: ``cosim_backlog`` floors its submits the same way)
BURST_S = 300_000.0


def digest(array) -> str:
    a = np.ascontiguousarray(array)
    h = hashlib.sha256(f"{a.dtype.str}:{a.shape}:".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def table_digests(table) -> dict:
    return {name: digest(table[name]) for name in table.columns}


def schedule_digests(result) -> dict:
    return {
        "allocations": table_digests(result.allocations),
        "node_allocations": table_digests(result.node_allocations),
        "dropped": digest(result.dropped),
        "dropped_by_class": table_digests(result.dropped_by_class),
    }


def painted(builder, t0: float, t1: float, dt: float) -> dict:
    out = {}
    for per_gpu, track in itertools.product((False, True), repeat=2):
        arrays = builder.build(t0, t1, dt, per_gpu=per_gpu, track_alloc=track)
        out[f"per_gpu={int(per_gpu)} track_alloc={int(track)}"] = {
            name: digest(getattr(arrays, name)) for name in TRACE_ARRAYS
            if getattr(arrays, name) is not None
        }
    return out


def compute() -> dict:
    out = {}
    small = simulate_twin(SimulationSpec(
        n_nodes=72, n_jobs=600, horizon_s=86_400.0, seed=23))
    out["twin 72x600 @1Hz [19205,19805)"] = painted(
        small.builder, 19_205.0, 19_805.0, 1.0)
    out["twin 72x600 cluster_power(10.0)"] = {
        name: digest(a)
        for name, a in zip(("times", "power"), small.cluster_power(10.0))
    }
    out["twin 72x600 job_series(components=True)"] = table_digests(
        small.job_series(components=True))

    twin = simulate_twin(SimulationSpec(
        n_nodes=180, n_jobs=1500, horizon_s=2 * 86_400.0, seed=23))
    out["twin 180x1500 @10s [158405,162005)"] = painted(
        twin.builder, 158_405.0, 162_005.0, 10.0)

    # six hours of submits on a one-day horizon: a deep queue, 64 active
    full = synthetic_catalog(SUMMIT, n_jobs=3000, horizon_s=21_600.0, seed=23)
    schedule = Scheduler(SUMMIT, seed=23).run(full, 86_400.0)
    out["synthetic 4626x3000 @10s [7205,7805)"] = painted(
        ClusterTraceBuilder(full, schedule, seed=23), 7205.0, 7805.0, 10.0)

    config = SUMMIT.scaled(180)
    for seed in (1, 2, 3):
        catalog = synthetic_catalog(
            config, n_jobs=1500, horizon_s=SCHED_HORIZON, seed=seed)
        result = Scheduler(config, seed=seed, drain_windows=DRAINS).run(
            catalog, SCHED_HORIZON)
        out[f"schedule seed={seed} two drains"] = schedule_digests(result)
    out["run_capped 40% cap"] = capped_digests(config, 1, catalog,
                                               SCHED_HORIZON)

    deep, horizon = burst_catalog(6000, seed=29)
    out["burst 4626x6000 schedule"] = schedule_digests(
        Scheduler(SUMMIT, seed=29).run(deep, horizon))
    out["burst 4626x6000 run_capped 40% cap"] = capped_digests(
        SUMMIT, 29, deep, horizon)
    return out


def capped_digests(config, seed: int, catalog, horizon: float) -> dict:
    cap = 0.4 * config.n_nodes * config.node_max_power_w
    capped = PowerAwareScheduler(cap, config, seed=seed).run_capped(
        catalog, horizon)
    return {
        "schedule": schedule_digests(capped.schedule),
        "commitment_times": digest(capped.commitment[0]),
        "commitment_watts": digest(capped.commitment[1]),
        "n_power_delayed": capped.n_power_delayed,
    }


def burst_catalog(n_jobs: int, seed: int) -> tuple[JobCatalog, float]:
    """A full-machine catalog at 95 % load whose submits are floored into
    ``BURST_S`` waves, so the pending queue runs thousands deep; returns
    it with a horizon 10 % past the demand-derived load span."""
    probe = synthetic_catalog(SUMMIT, n_jobs=n_jobs, horizon_s=1.0, seed=seed)
    t = probe.table
    span = float((t["node_count"] * t["walltime_s"]).sum()) / (
        SUMMIT.n_nodes * 0.95)
    cat = synthetic_catalog(SUMMIT, n_jobs=n_jobs, horizon_s=span, seed=seed)
    submit = np.floor(cat.table["submit_time"] / BURST_S) * BURST_S
    return (JobCatalog(cat.table.with_column("submit_time", submit), SUMMIT),
            1.1 * span)


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
