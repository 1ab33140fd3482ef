"""LSF-like scheduler producing the allocation history (Datasets C and D).

Event-driven simulation: jobs arrive at their submit times, wait in a
priority queue (leadership classes first, then submit order — Summit's
policy favors capability jobs), and start when enough nodes are free.
EASY-style reservation backfill keeps utilization high without starving
capability jobs: the highest-priority blocked job earns a *reservation* at
the earliest instant enough nodes will have drained, and later queue
entries may only start if they finish by that shadow time (or fit in the
nodes the reservation leaves spare).  Without the reservation, a saturated
machine would never drain far enough for a near-full-system job — the
classic starvation pathology.

Node placement draws a random subset of the free nodes (seeded): Summit's
CSM allocator scatters allocations across the floor, which is what makes
every switchboard carry live load (Figure 4) and spreads heat evenly at
scale (Figure 17).

The core is discrete-event, in the style of oar3's ``simsim`` and the
Firmament replay wrapper: submit and completion events are merged in time
order, the pending queue is kept incrementally sorted (``insort`` instead
of a full re-sort per event), the running set keeps a sorted end-time
mirror so the EASY shadow time and its spare-node count come from ONE walk
(no per-event ``sorted(running)`` copies), and drain-window edges advance
an O(1) interval pointer.  The batch-stepped loop it replaced lives on as
the differential oracle in ``tests/workload/reference_scheduler.py``; it
drives the same :class:`_Sim` and policy hooks, so the placement RNG is
drawn in the same order and ``ScheduleResult`` is identical bit for bit.

The output is sized by itself: every placement is written once, into its
row's slice of one preallocated buffer, and Dataset D is that buffer (or
one boolean gather of it, when some job never started) beside three
``np.repeat`` columns.  ``tracemalloc`` puts the peak of a 20k-job
full-machine run at 1.07x the bytes of ``allocations`` +
``node_allocations``, 1.15x when part of the backlog is dropped
(``tests/workload/test_schedule_memory.py`` holds it to 1.3x).

The event clock is a plain Python float (see :class:`_Sim`).  A queue scan
runs in two phases over the first ``min(len(pending), BACKFILL_DEPTH)``
entries: phase 1 starts fitting, admitted jobs in priority order until the
first job that does not fit, whose EASY reservation (shadow time and spare
nodes) is then computed once; phase 2 backfills the rest of the window
against it.  ``admit`` is called exactly when a job fits the free nodes, in
queue order, so a policy's veto bookkeeping sees the same calls as a
one-loop scan.

A scan that starts nothing leaves the queue *settled*, and further scans
are skipped (counted in ``n_scans_skipped``) until a completion batch, a
start, or a submit inserted inside the backfill window unsettles it.  The
skip is exact because nothing such a scan reads has changed: the free-node
count, the running set (hence the reservation), the window's entries and
the policy's committed state are all as they were, and a later ``now``
only tightens ``now + wall <= shadow``, so it would start nothing again.
Policies must therefore decide ``admit`` from state that only starts and
releases change, not from ``now`` (:class:`~repro.workload.powercap.
PowerAwareScheduler` decides from committed watts).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.config import SummitConfig, SUMMIT
from repro.frame.table import Table
from repro.obs import trace
from repro.workload.jobs import JobCatalog


@dataclass
class ScheduleResult:
    """Scheduler output.

    ``allocations``
        One row per *started* job: allocation_id, begin_time, end_time,
        node_count, sched_class (Dataset C analogue; join the catalog for
        domain/project/profile columns).
    ``node_allocations``
        One row per (job, node): allocation_id, node, begin_time, end_time
        (Dataset D analogue).
    ``dropped``
        allocation_ids that never started before the horizon closed.
    ``dropped_by_class``
        Per-class breakdown of the horizon drops: one row per scheduling
        class that lost at least one job (``sched_class``, ``n_dropped``).
        Empty table when nothing was dropped.
    """

    allocations: Table
    node_allocations: Table
    dropped: np.ndarray
    dropped_by_class: Table = field(
        default_factory=lambda: Table(
            {
                "sched_class": np.empty(0, dtype=np.int64),
                "n_dropped": np.empty(0, dtype=np.int64),
            }
        )
    )

    def nodes_of(self, allocation_id: int) -> np.ndarray:
        """Node ids assigned to one allocation, ascending (a read-only view)."""
        ids, bounds, nodes = self.node_index
        i = int(np.searchsorted(ids, allocation_id))
        if i == len(ids) or ids[i] != allocation_id:
            return nodes[:0]
        return nodes[bounds[i]:bounds[i + 1]]

    @cached_property
    def node_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, bounds, nodes)``: the ascending allocation ids, and
        ``nodes[bounds[i]:bounds[i + 1]]`` the nodes of ``ids[i]``.

        Built on first use.  A :meth:`Scheduler.run` output is already in
        (allocation, node) order (catalog ids are 1-based row numbers and
        each placement is sorted), which one pass over boolean
        temporaries confirms; then ``nodes`` is a read-only view of
        ``node_allocations["node"]`` and only the group starts are new
        arrays.  Any other table takes one stable sort by the key
        ``id * (max node + 1) + node`` and two gathers.  On the 2.07M rows
        of ``cosim_backlog``'s schedule (2-core Xeon) the view route takes
        ~9 ms, where the sort route took ~24 ms on the same ordered rows
        and ~0.4 s on a shuffled copy.
        """
        na = self.node_allocations
        ids, nodes = na["allocation_id"], na["node"]
        if _in_node_order(ids, nodes):
            nodes = nodes.view()
        else:
            key = ids * (int(nodes.max(initial=0)) + 1)
            key += nodes
            order = np.argsort(key, kind="stable")
            del key  # one full-table temporary at a time keeps the peak down
            ids = ids[order]
            nodes = nodes[order]
            del order
        first = np.ones(len(ids), dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        nodes.setflags(write=False)
        return ids[starts], np.append(starts, len(nodes)), nodes


def _in_node_order(ids: np.ndarray, nodes: np.ndarray) -> bool:
    """Whether the rows are in ascending (allocation, node) order, checked
    with boolean temporaries only."""
    ok = nodes[1:] >= nodes[:-1]
    ok |= ids[1:] != ids[:-1]
    ok &= ids[1:] >= ids[:-1]
    return bool(ok.all())


def _merged_drain_windows(
    windows: tuple[tuple[float, float], ...]
) -> list[tuple[float, float]]:
    """Sort and merge drain windows into disjoint intervals.

    ``any(a <= now < b)`` over the raw tuple and a pointer walk over the
    merged list agree for every ``now``, so the core's O(1) check is
    behavior-identical to scanning the raw windows.
    """
    ivs = sorted((float(a), float(b)) for a, b in windows if b > a)
    merged: list[tuple[float, float]] = []
    for a, b in ivs:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


class _Sim:
    """Mutable machine state of one run.

    Holds the free-node mask, per-job begin/end times, the running heap
    (completion order), its sorted end-time mirror ``by_end`` and the
    placement buffer ``placed``.  ``start_job`` / ``pop_completion`` /
    ``release`` are the only writers, so the core and the test oracle
    cannot drift in how they mutate the machine.

    ``placed`` is one int64 array with a slice per catalog row:
    ``placed[offset[row]:offset[row] + node_count]``, the offsets being the
    running sum of the node counts of the jobs that fit the machine.
    ``start_job`` writes the job's sorted placement into its slice and
    ``release`` frees the nodes the slice names.  Rows sit in catalog
    order, so once every job has started the buffer *is* Dataset D's
    ``node`` column: :func:`_assemble` takes it out of the finished run.
    The run's peak stays close to its output instead of holding a per-job
    array for every start and a concatenated copy besides.

    Everything the event loop touches per event is a plain Python object:
    node demands, walltimes and begin/end times are lists, and the clock
    is a Python float — an end time is ``now + wall_l[row]`` pushed as
    ``(end, row)``, never read back out of a numpy array, so heap compares
    and the backfill test do no numpy-scalar arithmetic.  (The catalog's
    float64 values convert exactly, so no bit moves.)  Placement draws
    ``placement_rng.choice(n_free, k)`` as indices into
    ``free.nonzero()[0]``: the same draws as choosing from the free-id
    array itself (``tests/workload/test_scheduler_properties.py`` pins
    that contract), without materializing it first.
    """

    __slots__ = (
        "sched", "catalog", "free", "n_free", "running", "by_end",
        "placed", "offset", "begin", "end", "placement_rng", "nodes_req_l",
        "wall_l", "n_started",
    )

    def __init__(self, sched: "Scheduler", catalog: JobCatalog):
        t = catalog.table
        n_jobs = catalog.n_jobs
        n_nodes = sched.config.n_nodes
        self.sched = sched
        self.catalog = catalog
        self.nodes_req_l: list[int] = t["node_count"].tolist()
        self.wall_l: list[float] = t["walltime_s"].tolist()
        self.free = np.ones(n_nodes, dtype=bool)
        self.n_free = n_nodes
        self.running: list[tuple[float, int]] = []  # heap of (end_time, row)
        #: sorted mirror of ``running``
        self.by_end: list[tuple[float, int]] = []
        # row r's placement is placed[offset[r]:offset[r] + node_count[r]];
        # a job wider than the machine never starts and reserves no slots
        slots = np.cumsum(_slot_counts(t["node_count"], n_nodes))
        self.placed = np.empty(int(slots[-1]) if n_jobs else 0, dtype=np.int64)
        self.offset: list[int] = [0]
        self.offset += slots[:-1].tolist()
        self.begin = [-1.0] * n_jobs
        self.end = [-1.0] * n_jobs
        self.placement_rng = np.random.default_rng(
            np.random.SeedSequence([sched.seed, 0x5CED])
        )
        self.n_started = 0

    def start_job(self, row: int, now: float) -> None:
        k = self.nodes_req_l[row]
        free_ids = self.free.nonzero()[0]
        if k != self.n_free:
            free_ids = free_ids[
                self.placement_rng.choice(self.n_free, size=k, replace=False)
            ]
            free_ids.sort()
        self.free[free_ids] = False
        self.n_free -= k
        o = self.offset[row]
        self.placed[o:o + k] = free_ids
        self.begin[row] = now
        end = now + self.wall_l[row]
        self.end[row] = end
        entry = (end, row)
        heapq.heappush(self.running, entry)
        insort(self.by_end, entry)
        self.n_started += 1
        self.sched.on_start(self.catalog, row, now)

    def pop_completion(self) -> tuple[float, int]:
        """Pop the next completion from the heap (and the mirror)."""
        entry = heapq.heappop(self.running)
        del self.by_end[bisect_left(self.by_end, entry)]
        return entry

    def release(self, row: int, now: float) -> None:
        k = self.nodes_req_l[row]
        o = self.offset[row]
        self.free[self.placed[o:o + k]] = True
        self.n_free += k
        self.sched.on_release(self.catalog, row, now)


def _slot_counts(node_count: np.ndarray, n_nodes: int) -> np.ndarray:
    """Placement-buffer slots per catalog row: its node count if the job
    fits the machine, else 0 (it can never start)."""
    return np.where(node_count <= n_nodes, node_count, 0)


class Scheduler:
    """EASY-backfill scheduler over ``config.n_nodes`` nodes.

    ``drain_windows`` are maintenance periods: no job may *start* inside
    one (running jobs finish normally), so the machine drains toward idle —
    the periodic idle-touching extremes visible in the paper's Figure 5,
    and the February window where the cooling towers were serviced.
    """

    #: how deep into the priority queue backfill may look (production
    #: schedulers cap this; it also bounds per-event work at year scale)
    BACKFILL_DEPTH = 64

    def __init__(
        self,
        config: SummitConfig = SUMMIT,
        seed: int = 0,
        drain_windows: tuple[tuple[float, float], ...] = (),
    ):
        self.config = config
        self.seed = seed
        self.drain_windows = tuple(drain_windows)
        #: operation counters from the most recent :meth:`run` (events,
        #: submits, completion batches, queue scans, shadow walks, ...)
        self.last_run_stats: dict[str, int] = {}

    # ---- policy hooks (overridden by power-aware variants) ----

    def admit(self, catalog: JobCatalog, row: int, now: float) -> bool:
        """Policy veto: may job ``row`` start right now?  Base: always.

        The answer may depend on what ``on_start`` / ``on_release`` track,
        not on ``now``: the core skips rescans of a settled queue.
        """
        return True

    def on_start(self, catalog: JobCatalog, row: int, now: float) -> None:
        """Called after a job starts (track committed resources)."""

    def on_release(self, catalog: JobCatalog, row: int, now: float) -> None:
        """Called after a job's nodes are released."""

    def run(self, catalog: JobCatalog, horizon_s: float) -> ScheduleResult:
        """Schedule every catalog job; jobs still pending at ``horizon_s``
        are dropped (they would run in the next year).

        The op counters land in ``last_run_stats`` and on the
        ``sched.run`` span.

        Raises ``ValueError`` (naming the column, the ``allocation_id`` and
        the value) for a catalog row the event loop cannot order: a
        negative ``node_count``, a non-finite ``submit_time``, or a
        ``walltime_s`` that is negative or not finite.  A job wider than
        the machine is not an error: it never starts and is ``dropped``.
        """
        _check_catalog(catalog)
        with trace.span("sched.run", jobs=catalog.n_jobs,
                        horizon_s=horizon_s) as sp:
            result = self._run_event(catalog, horizon_s)
            sp.set(**self.last_run_stats)
        return result

    def _run_event(self, catalog: JobCatalog, horizon_s: float) -> ScheduleResult:
        t = catalog.table
        submit = t["submit_time"]
        sclass_l = t["sched_class"].tolist()

        order = np.argsort(submit, kind="stable")
        order_l = order.tolist()
        submit_l = submit[order].tolist()
        n_jobs = catalog.n_jobs

        sim = _Sim(self, catalog)
        nodes_req_l = sim.nodes_req_l
        wall_l = sim.wall_l
        running = sim.running
        by_end = sim.by_end

        # pending queue: kept sorted by (class, seq) at all times, plus a
        # sorted multiset of its node demands so a scan that cannot start
        # anything (every demand > n_free) is skipped in O(1)
        pending: list[tuple[int, int, int]] = []
        pending_ks: list[int] = []
        # True after a scan that started nothing, until something it read
        # changes (see the module docstring)
        settled = False

        drains = _merged_drain_windows(self.drain_windows)
        n_drains = len(drains)
        drain_ptr = 0

        stats = {
            "n_events": 0,
            "n_submits": 0,
            "n_completion_batches": 0,
            "n_queue_scans": 0,
            "n_scans_skipped": 0,
            "n_shadow_walks": 0,
            "max_pending": 0,
        }
        inf = float("inf")
        depth_cap = self.BACKFILL_DEPTH
        admit = self.admit

        def shadow_and_spare(k_needed: int) -> tuple[float, int]:
            """One walk of the sorted running mirror: the earliest instant
            ``k_needed`` nodes are free *and* the nodes still spare then."""
            stats["n_shadow_walks"] += 1
            avail = sim.n_free
            freed = sim.n_free
            shadow = inf
            for t_end, row in by_end:
                nn = nodes_req_l[row]
                if shadow == inf:
                    avail += nn
                    if avail >= k_needed:
                        shadow = t_end
                        freed = avail
                elif t_end > shadow:
                    break
                else:
                    freed += nn
            if shadow == inf:
                return inf, 0
            return shadow, max(0, freed - k_needed)

        def try_start(now: float) -> None:
            """Priority scan with EASY reservation backfill."""
            nonlocal drain_ptr, settled
            n_free = sim.n_free
            if not pending or n_free == 0:
                return
            while drain_ptr < n_drains and now >= drains[drain_ptr][1]:
                drain_ptr += 1
            if drain_ptr < n_drains and drains[drain_ptr][0] <= now:
                return
            if settled or pending_ks[0] > n_free:
                # nothing the scan reads has changed since one that started
                # nothing, or nothing fits: either way a provable no-op
                stats["n_scans_skipped"] += 1
                return
            stats["n_queue_scans"] += 1
            stop = min(len(pending), depth_cap)
            started: list[int] = []
            # phase 1: start fitting, admitted jobs in priority order up to
            # the first one that does not fit; a policy veto (e.g. a power
            # cap) makes a job wait without earning a node reservation
            idx = 0
            while idx < stop and n_free:
                row = pending[idx][2]
                k = nodes_req_l[row]
                if k > n_free:
                    break
                if admit(catalog, row, now):
                    sim.start_job(row, now)
                    n_free -= k
                    started.append(idx)
                idx += 1
            if idx < stop and n_free:
                # phase 2: pending[idx] is the highest-priority blocked job;
                # it earns the reservation, and later entries backfill only
                # if they cannot delay it
                shadow, spare = shadow_and_spare(nodes_req_l[pending[idx][2]])
                for idx in range(idx + 1, stop):
                    row = pending[idx][2]
                    k = nodes_req_l[row]
                    if k <= n_free and admit(catalog, row, now) and (
                        now + wall_l[row] <= shadow or k <= spare
                    ):
                        sim.start_job(row, now)
                        n_free -= k
                        spare = spare - k if k <= spare else 0
                        started.append(idx)
                        if n_free == 0:
                            break
            settled = not started
            for i in reversed(started):
                row = pending[i][2]
                del pending[i]
                del pending_ks[bisect_left(pending_ks, nodes_req_l[row])]

        def completion_batch() -> None:
            nonlocal settled
            t_end, row_done = sim.pop_completion()
            sim.release(row_done, t_end)
            while running and running[0][0] <= t_end:
                _, r2 = sim.pop_completion()
                sim.release(r2, t_end)
            stats["n_completion_batches"] += 1
            settled = False
            try_start(t_end)

        seq = 0
        for i in range(n_jobs):
            now = submit_l[i]
            # completion events (and the queue scans they unlock) strictly
            # precede a submit at the same instant
            while running and running[0][0] <= now:
                completion_batch()
            row = order_l[i]
            item = (sclass_l[row], seq, row)
            pos = bisect_left(pending, item)
            pending.insert(pos, item)
            if pos < depth_cap:
                settled = False
            insort(pending_ks, nodes_req_l[row])
            seq += 1
            stats["n_submits"] += 1
            if len(pending) > stats["max_pending"]:
                stats["max_pending"] = len(pending)
            try_start(now)

        # after the last submit, keep processing completions until the
        # horizon closes or the queue drains
        while pending and running and running[0][0] <= horizon_s:
            completion_batch()

        stats["n_events"] = stats["n_submits"] + stats["n_completion_batches"]
        stats["n_started"] = sim.n_started
        self.last_run_stats = stats
        return _assemble(catalog, sim)


def _check_catalog(catalog: JobCatalog) -> None:
    """Reject the rows that would silently corrupt a schedule: a NaN time
    compares false against everything, so it stalls the completion heap or
    reorders submits; a negative node count cannot be placed."""
    t = catalog.table
    wall = t["walltime_s"]
    for name, ok, rule in (
        ("node_count", t["node_count"] >= 0, ">= 0"),
        ("submit_time", np.isfinite(t["submit_time"]), "finite"),
        ("walltime_s", np.isfinite(wall) & (wall >= 0), "finite and >= 0"),
    ):
        bad = np.flatnonzero(~ok)
        if len(bad):
            row = int(bad[0])
            raise ValueError(
                f"catalog column {name!r} must be {rule}, but allocation_id "
                f"{int(t['allocation_id'][row])} has {t[name][row].item()!r}"
                f" ({len(bad)} bad row{'s' if len(bad) > 1 else ''})"
            )


def _assemble(catalog: JobCatalog, sim: _Sim) -> ScheduleResult:
    """Build the result tables from the simulated machine state."""
    t = catalog.table
    alloc_ids = t["allocation_id"]
    nodes_req = t["node_count"]
    sclass = t["sched_class"]
    begin = np.array(sim.begin, dtype=np.float64)
    end = np.array(sim.end, dtype=np.float64)

    started = begin >= 0.0
    started_rows = np.flatnonzero(started)
    dropped = alloc_ids[~started]

    allocations = Table(
        {
            "allocation_id": alloc_ids[started_rows],
            "begin_time": begin[started_rows],
            "end_time": end[started_rows],
            "node_count": nodes_req[started_rows],
            "sched_class": sclass[started_rows],
        }
    )

    # per-node expansion (Dataset D): the placement buffer holds every
    # started job's nodes in row order, so when every job started it is
    # the node column itself.  Otherwise one gather drops the unused slots,
    # and the buffer is let go before the other columns are built.
    nodes, sim.placed = sim.placed, None
    if len(started_rows) < len(started):
        slots = _slot_counts(nodes_req, len(sim.free))
        nodes = nodes[np.repeat(started, slots)]
    counts = allocations["node_count"]
    node_allocations = Table(
        {
            "allocation_id": np.repeat(allocations["allocation_id"], counts),
            "node": nodes,
            "begin_time": np.repeat(allocations["begin_time"], counts),
            "end_time": np.repeat(allocations["end_time"], counts),
        }
    )

    drop_cls, drop_counts = np.unique(sclass[~started], return_counts=True)
    dropped_by_class = Table(
        {
            "sched_class": drop_cls.astype(np.int64),
            "n_dropped": drop_counts.astype(np.int64),
        }
    )
    return ScheduleResult(
        allocations, node_allocations, dropped, dropped_by_class
    )


def schedule_jobs(catalog: JobCatalog, horizon_s: float) -> ScheduleResult:
    """Convenience wrapper: schedule ``catalog`` on its machine."""
    return Scheduler(catalog.config).run(catalog, horizon_s)

