"""The batch-stepped scheduler loop, kept as the event core's oracle.

This is the loop ``Scheduler`` ran before the event-driven core: it
re-sorts ``pending`` on every event, rebuilds the not-started list on
every scan and walks ``sorted(running)`` for the EASY reservation.  It is
4-15x slower under a backlog and wins nothing, so it left ``src/``; as a
straight-line statement of the policy it stays here, where the Hypothesis
differential tests compare the core against it.

It drives the same ``_Sim`` (placement RNG, node bookkeeping) and the same
three policy hooks (``admit`` / ``on_start`` / ``on_release``) as the core
and ends in the same ``_assemble``, so any difference in a
``ScheduleResult`` is a difference in scheduling decisions.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.workload.jobs import JobCatalog
from repro.workload.scheduler import (ScheduleResult, Scheduler, _assemble,
                                      _Sim)


def reference(sched: Scheduler) -> Scheduler:
    """``sched`` with :func:`run_reference` swapped in as its core, so the
    public entries (``run``, ``run_capped``) run the oracle."""
    sched._run_event = partial(run_reference, sched)
    return sched


def run_reference(
    sched: Scheduler, catalog: JobCatalog, horizon_s: float
) -> ScheduleResult:
    t = catalog.table
    submit = t["submit_time"]
    nodes_req = t["node_count"]
    wall = t["walltime_s"]
    sclass = t["sched_class"]

    order = np.argsort(submit, kind="stable")
    sim = _Sim(sched, catalog)
    running = sim.running

    pending: list[tuple[int, int, int]] = []  # (class, seq, row)
    stats = {
        "n_events": 0, "n_submits": 0, "n_completion_batches": 0,
        "n_queue_scans": 0, "n_scans_skipped": 0, "n_shadow_walks": 0,
        "max_pending": 0,
    }

    def shadow_and_spare(k_needed: int) -> tuple[float, int]:
        """Earliest time the top blocked job can have ``k_needed``
        nodes, and the spare nodes at that instant — one end-ordered
        walk of the running set."""
        stats["n_shadow_walks"] += 1
        avail = sim.n_free
        freed = sim.n_free
        shadow = float("inf")
        for t_end, row in sorted(running):
            nn = int(nodes_req[row])
            if shadow == float("inf"):
                avail += nn
                if avail >= k_needed:
                    shadow = t_end
                    freed = avail
            elif t_end > shadow:
                break
            else:
                freed += nn
        if shadow == float("inf"):
            return shadow, 0
        return shadow, max(0, freed - k_needed)

    def try_start(now: float) -> None:
        """Priority scan with EASY reservation backfill."""
        if not pending or sim.n_free == 0 or any(
            a <= now < b for a, b in sched.drain_windows
        ):
            return
        stats["n_queue_scans"] += 1
        pending.sort()
        still: list[tuple[int, int, int]] = []
        shadow: float | None = None
        spare_at_shadow = 0
        for depth, item in enumerate(pending):
            if sim.n_free == 0 or depth >= sched.BACKFILL_DEPTH:
                still.extend(pending[depth:])
                break
            row = item[2]
            k = int(nodes_req[row])
            if k <= sim.n_free and not sched.admit(catalog, row, now):
                # policy veto (e.g. power cap): job waits without
                # earning a node reservation
                still.append(item)
            elif k <= sim.n_free and shadow is None:
                sim.start_job(row, now)
            elif k <= sim.n_free:
                # backfill candidate: must not delay the reservation —
                # either done by the shadow time, or small enough to fit
                # in the nodes the blocked job leaves spare
                if now + float(wall[row]) <= shadow or k <= spare_at_shadow:
                    sim.start_job(row, now)
                    if k > spare_at_shadow:
                        spare_at_shadow = 0
                    else:
                        spare_at_shadow -= k
                else:
                    still.append(item)
            else:
                if shadow is None:
                    # first blocked job: compute its reservation
                    shadow, spare_at_shadow = shadow_and_spare(k)
                still.append(item)
        pending[:] = still

    def completion_batch() -> None:
        t_end, row_done = sim.pop_completion()
        sim.release(row_done, t_end)
        # drain any other jobs ending at the same instant first
        while running and running[0][0] <= t_end:
            _, r2 = sim.pop_completion()
            sim.release(r2, t_end)
        stats["n_completion_batches"] += 1
        try_start(t_end)

    seq = 0
    for j in order:
        now = float(submit[j])
        # release completions (and give queued jobs those nodes) in order
        while running and running[0][0] <= now:
            completion_batch()
        pending.append((int(sclass[j]), seq, int(j)))
        seq += 1
        stats["n_submits"] += 1
        stats["max_pending"] = max(stats["max_pending"], len(pending))
        try_start(now)

    while pending and running and running[0][0] <= horizon_s:
        completion_batch()

    stats["n_events"] = stats["n_submits"] + stats["n_completion_batches"]
    stats["n_started"] = sim.n_started
    sched.last_run_stats = stats
    return _assemble(catalog, sim)
