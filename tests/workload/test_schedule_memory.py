"""``Scheduler.run`` holds little more than its own output.

Every placement is written once into one preallocated buffer that becomes
Dataset D's ``node`` column, so the traced peak of a run stays close to
the bytes of ``allocations`` + ``node_allocations``.  A run that kept a
node array per job, concatenated them and gathered the per-node columns
through a row index peaked at ~1.9x.
"""

import tracemalloc

import numpy as np
import pytest

from repro.config import SUMMIT
from repro.workload import JobCatalog, Scheduler, synthetic_catalog
from repro.workload.scheduler import _Sim

from tests.workload.test_scheduler import tiny_catalog

#: submits are floored to waves this long, which keeps the queue deep
WAVE_S = 1.5e6


def _wave_catalog(n_jobs: int, seed: int) -> tuple[JobCatalog, float]:
    """A full-machine catalog at ~95 % load whose submits arrive in
    waves; the horizon is the demand over capacity."""
    probe = synthetic_catalog(n_jobs=n_jobs, horizon_s=1.0, seed=seed).table
    demand = float((probe["node_count"] * probe["walltime_s"]).sum())
    horizon = demand / (SUMMIT.n_nodes * 0.95)
    cat = synthetic_catalog(n_jobs=n_jobs, horizon_s=horizon, seed=seed)
    submit = np.floor(cat.table["submit_time"] / WAVE_S) * WAVE_S
    return JobCatalog(cat.table.with_column("submit_time", submit),
                      cat.config), horizon


def _nbytes(table) -> int:
    return sum(table[c].nbytes for c in table.columns)


def _traced_run(catalog: JobCatalog, horizon: float):
    tracemalloc.start()
    try:
        result = Scheduler(catalog.config, seed=1).run(catalog, horizon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("stretch, all_started", [(1.1, True), (0.5, False)])
def test_peak_is_within_1_3x_of_the_output(stretch, all_started):
    """Every job starts in the full horizon; cut to half, part of the
    backlog is dropped and Dataset D is a gather of the buffer."""
    catalog, horizon = _wave_catalog(5_000, seed=3)
    result, peak = _traced_run(catalog, stretch * horizon)
    out = _nbytes(result.allocations) + _nbytes(result.node_allocations)
    assert result.node_allocations.n_rows > 100_000  # a real Dataset D
    assert (len(result.dropped) == 0) == all_started
    assert peak <= 1.3 * out, (peak, out)


def test_job_wider_than_the_machine_reserves_no_slots():
    cfg = SUMMIT.scaled(40)
    rows = [(0.0, 4, 3, 100.0), (1.0, 10**12, 2, 100.0),
            (2.0, cfg.n_nodes, 1, 50.0)]
    catalog = tiny_catalog(cfg, rows)
    sim = _Sim(Scheduler(cfg), catalog)
    assert sim.placed.size == 4 + cfg.n_nodes
    assert sim.offset == [0, 4, 4]

    result, peak = _traced_run(catalog, 10_000.0)
    assert result.dropped.tolist() == [2]
    assert result.allocations["allocation_id"].tolist() == [1, 3]
    assert result.node_allocations.n_rows == 4 + cfg.n_nodes
    assert peak < 1 << 20
