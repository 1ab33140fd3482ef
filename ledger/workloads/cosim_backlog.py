"""``cosim_backlog``: the scheduler under a deep backlog, then the painter.

A pure-Python event loop under a pending queue tens of thousands deep,
plus the batched trace painter: no storage, no numpy-bound kernels, no
I/O — the workload on which every storage / serve / stream optimisation
must not move.  Every block schedules the same catalog and paints the same
windows with a fresh builder, so blocks are equal work by construction and
the schedule must hash the same every time.  Slots: ``[Scheduler.run]``
(one call cannot be sliced) and one per painted window.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.obs import span
from repro.workload import (ClusterTraceBuilder, JobCatalog, Scheduler,
                            synthetic_catalog)

from ledger.layers import per
from ledger.workloads import Workload, timed

#: machine utilisation of the synthetic load: just under critical, so
#: every job eventually starts
UTILIZATION = 0.95
#: submit-time quantum: all submits within a wave land at its start,
#: which is what keeps the pending queue deep
BURST_S = 1.5e6
WINDOW_S, DT = 600.0, 10.0
#: the job population is the same for every ``--seed``: the order and
#: shape of the jobs decide how often the queue is scanned (+-25 % between
#: catalog seeds at this size), which would read as noise.  ``--seed``
#: drives node placement and the painter's per-node noise instead, so
#: every seed schedules the same events onto different nodes.
POPULATION_SEED = 3


def burst_catalog(n_jobs: int, seed: int) -> tuple[JobCatalog, float]:
    """A 95 %-load catalog whose submits arrive in ``BURST_S`` waves.

    The horizon is derived from the demand (node-seconds over capacity x
    utilisation), so the backlog regime is the same at every size.
    """
    probe = synthetic_catalog(n_jobs=n_jobs, horizon_s=1.0, seed=seed)
    t = probe.table
    demand = float((t["node_count"] * t["walltime_s"]).sum())
    horizon = demand / (probe.config.n_nodes * UTILIZATION)
    cat = synthetic_catalog(n_jobs=n_jobs, horizon_s=horizon, seed=seed)
    submit = np.floor(cat.table["submit_time"] / BURST_S) * BURST_S
    return JobCatalog(cat.table.with_column("submit_time", submit),
                      cat.config), horizon


def schedule_digest(result) -> str:
    h = hashlib.blake2b(digest_size=16)
    for table in (result.allocations, result.node_allocations):
        for name in table.columns:
            h.update(np.ascontiguousarray(table[name]).tobytes())
    h.update(np.ascontiguousarray(result.dropped).tobytes())
    return h.hexdigest()


class CosimBacklog(Workload):
    name = "cosim_backlog"

    def build(self, r: int) -> None:
        self.n_jobs, self.n_windows = (3_000, 3) if self.quick else (20_000, 12)
        with self.step("catalog"):
            self.catalog, self.horizon = burst_catalog(self.n_jobs,
                                                       POPULATION_SEED)
        start = 0.25 * self.horizon
        self.windows = [(start + i * WINDOW_S, start + (i + 1) * WINDOW_S)
                        for i in range(self.n_windows)]
        self.digest: str | None = None
        self.stats: dict[str, int] = {}

    def _schedule(self, catalog: JobCatalog, horizon: float):
        sched = Scheduler(catalog.config, seed=self.seed)
        seconds, result = timed(sched.run, catalog, horizon * 1.1)
        return result, sched.last_run_stats, seconds

    def block(self, k: int) -> tuple[list[float], list[float]]:
        result, stats, sched_s = self._schedule(self.catalog, self.horizon)
        with span("workload.traces:init"):
            builder = ClusterTraceBuilder(self.catalog, result,
                                          seed=self.seed)
        cells, paint_slots = 0, []
        for w0, w1 in self.windows:
            seconds, arrays = timed(builder.build, w0, w1, DT)
            paint_slots.append(seconds)
            cells += arrays.node_input_w.size
        self.units = (float(stats["n_started"]), float(cells))
        with span("ledger:checks"):
            digest = schedule_digest(result)
            if self.digest is None:
                self.digest, self.stats = digest, dict(stats)
            self.op(digest == self.digest,
                    "ScheduleResult digest differs between blocks")
            self.op(_op_counts_hold(stats, self.n_jobs, result),
                    "Scheduler.last_run_stats invariants violated")
            self.op(cells == self.n_windows * builder.config.n_nodes
                    * int(WINDOW_S / DT), "painted cell count")
        return [sched_s], paint_slots

    def detail(self) -> dict:
        return {"schedule_digest": self.digest}

    def probe(self, record) -> None:
        shallow, horizon = burst_catalog(self.n_jobs // 3, POPULATION_SEED)
        best = float("inf")
        for _ in range(2):
            _, stats, seconds = self._schedule(shallow, horizon)
            best = min(best, seconds)
        self.shallow_jobs_per_s = stats["n_started"] / best

    def layer_metrics(self, spans) -> dict[str, float]:
        run, build = "workload.scheduler:run", "workload.traces:build"
        active = "workload.traces:active_rows"
        n_runs = spans.count(run)
        return {
            "workload.scheduler.us_per_event": per(
                spans.total(run), n_runs * self.stats["n_events"], 1e6),
            "workload.scheduler.max_pending":
                float(self.stats["max_pending"]),
            "workload.scheduler.queue_scans":
                float(self.stats["n_queue_scans"]),
            "workload.scheduler.shallow_jobs_per_s": self.shallow_jobs_per_s,
            "workload.traces.paint_ms_per_window":
                per(spans.total(build), spans.count(build), 1e3),
            "workload.traces.active_rows_us":
                per(spans.total(active), spans.count(active), 1e6),
        }


def _op_counts_hold(stats: dict, n_jobs: int, result) -> bool:
    """The engine's bookkeeping invariants (no timing involved)."""
    return (
        stats["n_events"] == stats["n_submits"] + stats["n_completion_batches"]
        and stats["n_submits"] == n_jobs
        and stats["n_started"] == result.allocations.n_rows
        and stats["n_started"] + len(result.dropped) == n_jobs
        and stats["max_pending"] > 0
        and stats["n_queue_scans"] >= 1
        and stats["n_shadow_walks"] <= stats["n_queue_scans"]
        and int(result.dropped_by_class["n_dropped"].sum())
        == len(result.dropped)
    )
