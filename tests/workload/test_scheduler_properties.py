"""Hypothesis property tests on the scheduler's safety invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SUMMIT
from repro.frame.table import Table
from repro.workload.jobs import JobCatalog
from repro.workload.scheduler import Scheduler

N_NODES = 16


@st.composite
def random_catalog(draw):
    n = draw(st.integers(1, 40))
    submits = sorted(
        draw(st.lists(st.floats(0, 5000, allow_nan=False), min_size=n, max_size=n))
    )
    nodes = draw(st.lists(st.integers(1, N_NODES), min_size=n, max_size=n))
    walls = draw(st.lists(st.floats(10, 2000, allow_nan=False),
                          min_size=n, max_size=n))
    classes = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    table = Table(
        {
            "allocation_id": np.arange(1, n + 1, dtype=np.int64),
            "submit_time": np.array(submits),
            "node_count": np.array(nodes, dtype=np.int64),
            "sched_class": np.array(classes, dtype=np.int64),
            "req_walltime_s": np.array(walls),
            "walltime_s": np.array(walls),
            "domain": np.array(["Physics"] * n),
            "project": np.array(["PHY000"] * n),
            "user_id": np.zeros(n, dtype=np.int64),
            "gpus_used": np.full(n, 6, dtype=np.int64),
            "kind_code": np.zeros(n, dtype=np.int64),
            "cpu_base": np.full(n, 0.3),
            "cpu_amp": np.zeros(n),
            "gpu_base": np.full(n, 0.5),
            "gpu_amp": np.zeros(n),
            "period_s": np.full(n, 200.0),
            "duty": np.full(n, 0.6),
            "phase_s": np.zeros(n),
        }
    )
    return JobCatalog(table=table, config=SUMMIT.scaled(N_NODES))


@st.composite
def placement_steps(draw):
    """A sequence of (free mask, k) placement requests, 0 <= k <= free."""
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        mask = np.array(draw(st.lists(st.booleans(), min_size=1,
                                      max_size=64)))
        k = draw(st.integers(0, int(mask.sum())))
        steps.append((mask, k))
    return steps


class TestPlacementContract:
    @given(placement_steps(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_index_draw_equals_free_id_draw(self, steps, seed):
        """``_Sim.start_job`` draws ``choice(n_free, k)`` indices into
        ``free.nonzero()[0]``; the golden schedules were drawn as
        ``choice(flatnonzero(free), k)``.  Both must consume one generator
        identically, step for step — a numpy release that changes this
        fails here by name, not as a ``cosim_arrays.json`` diff."""
        by_index = np.random.default_rng(seed)
        by_ids = np.random.default_rng(seed)
        for free, k in steps:
            n = int(free.sum())
            a = free.nonzero()[0][by_index.choice(n, size=k, replace=False)]
            b = by_ids.choice(np.flatnonzero(free), size=k, replace=False)
            assert np.array_equal(a, b)
        assert by_index.random() == by_ids.random()


class TestSchedulerInvariants:
    @given(random_catalog())
    @settings(max_examples=60, deadline=None)
    def test_no_double_booking(self, catalog):
        res = Scheduler(catalog.config).run(catalog, 50_000.0)
        na = res.node_allocations
        if na.n_rows < 2:
            return
        order = np.lexsort((na["begin_time"], na["node"]))
        nodes = na["node"][order]
        begins = na["begin_time"][order]
        ends = na["end_time"][order]
        same = nodes[1:] == nodes[:-1]
        assert np.all(begins[1:][same] >= ends[:-1][same] - 1e-9)

    @given(random_catalog())
    @settings(max_examples=60, deadline=None)
    def test_no_job_lost(self, catalog):
        res = Scheduler(catalog.config).run(catalog, 50_000.0)
        assert res.allocations.n_rows + len(res.dropped) == catalog.n_jobs

    @given(random_catalog())
    @settings(max_examples=60, deadline=None)
    def test_starts_after_submit_with_exact_nodes(self, catalog):
        res = Scheduler(catalog.config).run(catalog, 50_000.0)
        al = res.allocations
        submit = {
            int(a): float(s)
            for a, s in zip(catalog.table["allocation_id"],
                            catalog.table["submit_time"])
        }
        for aid, b, nc in zip(al["allocation_id"], al["begin_time"],
                              al["node_count"]):
            assert b >= submit[int(aid)] - 1e-9
            assert len(res.nodes_of(int(aid))) == int(nc)

    @given(random_catalog())
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_exceeded(self, catalog):
        res = Scheduler(catalog.config).run(catalog, 50_000.0)
        na = res.node_allocations
        if na.n_rows == 0:
            return
        # sweep events: +1 at begin, -1 at end, per node impossible to exceed
        # machine size in total
        events = np.concatenate([
            np.stack([na["begin_time"], np.ones(na.n_rows)], axis=1),
            np.stack([na["end_time"], -np.ones(na.n_rows)], axis=1),
        ])
        order = np.lexsort((events[:, 1], events[:, 0]))
        occupancy = np.cumsum(events[order, 1])
        assert occupancy.max() <= N_NODES + 1e-9

    @given(random_catalog())
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, catalog):
        a = Scheduler(catalog.config, seed=3).run(catalog, 50_000.0)
        b = Scheduler(catalog.config, seed=3).run(catalog, 50_000.0)
        assert a.allocations == b.allocations
        assert a.node_allocations == b.node_allocations
