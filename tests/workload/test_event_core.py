"""Bit-identity property tests: event-driven core vs the reference loop.

The event-driven scheduler core is pure performance work — every
observable artifact must be *bit-identical* to the straight-line loop in
``reference_scheduler.py``.  Hypothesis drives both through adversarial
workloads (submit-time ties, drain windows, power-cap vetoes, zero-node
jobs) and compares full ``ScheduleResult`` contents, not summaries.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.config import SUMMIT
from repro.frame.table import Table
from repro.workload.jobs import JobCatalog
from repro.workload.powercap import PowerAwareScheduler
from repro.workload.scheduler import Scheduler
from repro.workload.traces import ClusterTraceBuilder
from tests.workload.reference_scheduler import reference

N_NODES = 16
HORIZON = 50_000.0


def make_catalog(submits, nodes, walls, classes, kinds, gpus) -> JobCatalog:
    n = len(submits)
    table = Table(
        {
            "allocation_id": np.arange(1, n + 1, dtype=np.int64),
            "submit_time": np.array(submits, dtype=np.float64),
            "node_count": np.array(nodes, dtype=np.int64),
            "sched_class": np.array(classes, dtype=np.int64),
            "req_walltime_s": np.array(walls, dtype=np.float64),
            "walltime_s": np.array(walls, dtype=np.float64),
            "domain": np.array(["Physics"] * n),
            "project": np.array(["PHY000"] * n),
            "user_id": np.zeros(n, dtype=np.int64),
            "gpus_used": np.array(gpus, dtype=np.int64),
            "kind_code": np.array(kinds, dtype=np.int64),
            "cpu_base": np.full(n, 0.3),
            "cpu_amp": np.full(n, 0.1),
            "gpu_base": np.full(n, 0.5),
            "gpu_amp": np.full(n, 0.2),
            "period_s": np.full(n, 200.0),
            "duty": np.full(n, 0.6),
            "phase_s": np.full(n, 35.0),
        }
    )
    return JobCatalog(table=table, config=SUMMIT.scaled(N_NODES))


@st.composite
def tied_catalog(draw, min_jobs=1, max_jobs=40, allow_zero_nodes=True):
    """Catalogs stressing the queues: quantized submits (many exact ties),
    walltime ties, and optionally zero-node jobs."""
    n = draw(st.integers(min_jobs, max_jobs))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    # submits on a coarse grid -> heavy exact-tie batches
    submits = [500.0 * s for s in sorted(column(st.integers(0, 10)))]
    nodes = column(st.integers(0 if allow_zero_nodes else 1, N_NODES))
    walls = column(st.sampled_from([10.0, 500.0, 500.0, 2000.0]))
    classes = column(st.integers(1, 5))
    kinds = column(st.integers(0, 4))
    return make_catalog(submits, nodes, walls, classes, kinds,
                        column(st.integers(1, 6)))


#: every job submitted at t=0, in this order: A (15 nodes) starts; B (16)
#: blocks and takes the reservation at t=500; C and D (1 node each) fit
#: but would overrun it.  At ``BACKFILL_DEPTH`` 2, D lands behind the
#: window of a scan (C's) that started nothing, so its scan is skipped.
BEHIND_WINDOW = make_catalog(
    submits=[0.0] * 4, nodes=[15, 16, 1, 1], walls=[500.0, 500.0, 2000.0,
                                                    2000.0],
    classes=[1, 1, 5, 5], kinds=[0] * 4, gpus=[6] * 4,
)


def with_depth(cls, depth: int):
    """``cls`` with a shallower backfill window; both cores read
    ``sched.BACKFILL_DEPTH``."""
    return type(f"{cls.__name__}Depth{depth}", (cls,),
                {"BACKFILL_DEPTH": depth})


drain_windows_st = st.lists(
    st.tuples(st.floats(0, HORIZON, allow_nan=False),
              st.floats(1.0, 20_000.0, allow_nan=False)),
    max_size=3,
).map(lambda ws: tuple((a, a + d) for a, d in ws))


def assert_schedules_identical(a, b):
    for name in a.allocations.columns:
        assert np.array_equal(a.allocations[name], b.allocations[name]), name
    for name in a.node_allocations.columns:
        assert np.array_equal(
            a.node_allocations[name], b.node_allocations[name]
        ), name
    assert np.array_equal(a.dropped, b.dropped)
    for name in a.dropped_by_class.columns:
        assert np.array_equal(
            a.dropped_by_class[name], b.dropped_by_class[name]
        ), name


class TestEventCoreBitIdentity:
    @given(tied_catalog(), drain_windows_st, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_schedule_identical_under_ties_and_drains(
        self, catalog, drains, seed
    ):
        ref = reference(Scheduler(
            catalog.config, seed=seed, drain_windows=drains,
        )).run(catalog, HORIZON)
        ev = Scheduler(
            catalog.config, seed=seed, drain_windows=drains
        ).run(catalog, HORIZON)
        assert_schedules_identical(ref, ev)

    @given(tied_catalog(), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_power_cap_vetoes_identical(self, catalog, seed):
        # a cap low enough to veto often, high enough to admit sometimes
        cap = catalog.config.n_nodes * catalog.config.node_max_power_w * 0.4
        ref = reference(PowerAwareScheduler(
            cap, catalog.config, seed=seed
        )).run_capped(catalog, HORIZON)
        ev = PowerAwareScheduler(
            cap, catalog.config, seed=seed
        ).run_capped(catalog, HORIZON)
        assert_schedules_identical(ref.schedule, ev.schedule)
        assert ref.n_power_delayed == ev.n_power_delayed
        assert np.array_equal(ref.commitment[0], ev.commitment[0])
        assert np.array_equal(ref.commitment[1], ev.commitment[1])

    @given(tied_catalog(), drain_windows_st, st.sampled_from([1, 2, 4, 8]),
           st.integers(0, 3))
    @example(BEHIND_WINDOW, (), 2, 0)
    @settings(max_examples=60, deadline=None)
    def test_identical_at_shallow_backfill_depth(
        self, catalog, drains, depth, seed
    ):
        cls = with_depth(Scheduler, depth)
        ref = reference(cls(
            catalog.config, seed=seed, drain_windows=drains,
        )).run(catalog, HORIZON)
        sched = cls(catalog.config, seed=seed, drain_windows=drains)
        ev = sched.run(catalog, HORIZON)
        assert_schedules_identical(ref, ev)
        if catalog is BEHIND_WINDOW:
            assert sched.last_run_stats["n_scans_skipped"] > 0

    @given(tied_catalog(), st.sampled_from([1, 2, 4, 8]), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_power_cap_identical_at_shallow_backfill_depth(
        self, catalog, depth, seed
    ):
        cls = with_depth(PowerAwareScheduler, depth)
        cap = catalog.config.n_nodes * catalog.config.node_max_power_w * 0.4
        ref = reference(cls(cap, catalog.config, seed=seed)).run_capped(
            catalog, HORIZON)
        ev = cls(cap, catalog.config, seed=seed).run_capped(catalog, HORIZON)
        assert_schedules_identical(ref.schedule, ev.schedule)
        assert ref.n_power_delayed == ev.n_power_delayed
        assert np.array_equal(ref.commitment[0], ev.commitment[0])
        assert np.array_equal(ref.commitment[1], ev.commitment[1])

    def test_scan_behind_the_window_is_skipped(self):
        """The settled rule on ``BEHIND_WINDOW``: at depth 2, D's submit
        lands behind the window of C's fruitless scan and is skipped; at
        depth 64 it is inside the window and rescanned.  The schedule is
        the same either way."""
        shallow = with_depth(Scheduler, 2)(BEHIND_WINDOW.config)
        deep = Scheduler(BEHIND_WINDOW.config)
        a = shallow.run(BEHIND_WINDOW, HORIZON)
        b = deep.run(BEHIND_WINDOW, HORIZON)
        assert_schedules_identical(a, b)
        assert a.allocations["begin_time"].tolist() == [0.0, 500.0, 1000.0,
                                                        1000.0]
        # B's submit: nothing fits (k=16 > 1 free); D's: settled
        assert shallow.last_run_stats["n_scans_skipped"] == 2
        assert deep.last_run_stats["n_scans_skipped"] == 1
        assert (shallow.last_run_stats["n_queue_scans"] + 1
                == deep.last_run_stats["n_queue_scans"])

    @given(tied_catalog(min_jobs=3, allow_zero_nodes=True), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_dropped_by_class_accounting(self, catalog, seed):
        res = Scheduler(catalog.config, seed=seed).run(catalog, HORIZON)
        assert int(res.dropped_by_class["n_dropped"].sum()) == len(res.dropped)
        # per-class counts match a direct recount of the dropped ids
        cls_of = {
            int(a): int(c)
            for a, c in zip(
                catalog.table["allocation_id"], catalog.table["sched_class"]
            )
        }
        for sc, nd in zip(
            res.dropped_by_class["sched_class"],
            res.dropped_by_class["n_dropped"],
        ):
            assert sum(1 for d in res.dropped if cls_of[int(d)] == sc) == nd

    @given(tied_catalog(min_jobs=5, allow_zero_nodes=False))
    @settings(max_examples=10, deadline=None)
    def test_noise_cache_is_value_transparent(self, catalog):
        sched = Scheduler(catalog.config, seed=1).run(catalog, HORIZON)
        cold = ClusterTraceBuilder(catalog, sched, seed=1)
        warm = ClusterTraceBuilder(catalog, sched, seed=1)
        # fill warm's cache from a different window and sampling step
        warm.build(0.0, 4000.0, 100.0)
        a = cold.build(0.0, 2000.0, 50.0)
        b = warm.build(0.0, 2000.0, 50.0)
        # second build on each side hits the cache; must still match
        c = cold.build(0.0, 2000.0, 50.0)
        assert np.array_equal(a.node_input_w, b.node_input_w)
        assert np.array_equal(a.node_input_w, c.node_input_w)
