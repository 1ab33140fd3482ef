"""Unit tests for trace synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.generate import cluster_power_window, job_power_series_direct
from repro.workload import traces
from repro.workload.scheduler import Scheduler
from repro.workload.traces import AllocationIntervalIndex, ClusterTraceBuilder
from tests.workload.gen_cosim_golden import TRACE_ARRAYS as ARRAYS
from tests.workload.test_event_core import HORIZON, tied_catalog


@pytest.fixture(scope="module")
def builder(twin):
    return twin.builder


class TestBuild:
    def test_shapes(self, twin, builder):
        arr = builder.build(0.0, 600.0, 10.0)
        assert arr.times.shape == (60,)
        assert arr.node_input_w.shape == (twin.config.n_nodes, 60)
        assert arr.gpu_power_w is None

    def test_per_gpu_detail(self, twin, builder):
        arr = builder.build(0.0, 300.0, 10.0, per_gpu=True)
        assert arr.gpu_power_w.shape == (twin.config.n_nodes, 6, 30)
        # per-GPU sums to the node GPU aggregate
        assert np.allclose(arr.gpu_power_w.sum(axis=1), arr.node_gpu_w)

    def test_power_bounds(self, twin, builder):
        arr = builder.build(0.0, 1200.0, 10.0)
        cfg = twin.config
        assert np.all(arr.node_input_w <= cfg.node_max_power_w + 1e-9)
        assert np.all(arr.node_input_w >= cfg.node_idle_w * 0.9)

    def test_idle_nodes_at_idle_power(self, twin, builder):
        arr = builder.build(0.0, 100.0, 10.0, track_alloc=True)
        idle_mask = arr.node_alloc == -1
        if idle_mask.any():
            idle_p = arr.node_input_w[idle_mask]
            assert np.allclose(idle_p, twin.config.node_idle_w, rtol=0.02)

    def test_track_alloc_matches_schedule(self, twin, builder):
        arr = builder.build(0.0, 3600.0, 10.0, track_alloc=True)
        al = twin.schedule.allocations
        # pick an allocation fully inside the window
        inside = (al["begin_time"] >= 0) & (al["end_time"] <= 3600.0)
        if inside.any():
            aid = int(al["allocation_id"][inside][0])
            nodes = twin.schedule.nodes_of(aid)
            b = float(al["begin_time"][inside][0])
            e = float(al["end_time"][inside][0])
            i0 = int(np.searchsorted(arr.times, b))
            i1 = int(np.searchsorted(arr.times, e))
            if i1 > i0:
                assert np.all(arr.node_alloc[nodes, i0:i1] == aid)

    def test_bad_window(self, builder):
        with pytest.raises(ValueError):
            builder.build(100.0, 100.0, 10.0)

    def test_memory_guard(self, builder):
        with pytest.raises(MemoryError):
            builder.build(0.0, 400 * 86400.0, 1.0)

    def test_cluster_power_sum(self, builder):
        arr = builder.build(0.0, 100.0, 10.0)
        assert np.allclose(arr.cluster_power_w(), arr.node_input_w.sum(axis=0))

    def test_to_table_long_format(self, twin, builder):
        arr = builder.build(0.0, 50.0, 10.0, track_alloc=True)
        t = arr.to_table()
        assert t.n_rows == twin.config.n_nodes * 5
        assert "input_power" in t and "allocation_id" in t
        back = t["input_power"].reshape(twin.config.n_nodes, 5)
        assert np.array_equal(back, arr.node_input_w)

    def test_deterministic(self, twin):
        a = ClusterTraceBuilder(twin.catalog, twin.schedule, twin.chips, seed=7)
        b = ClusterTraceBuilder(twin.catalog, twin.schedule, twin.chips, seed=7)
        arr_a = a.build(0.0, 100.0, 10.0)
        arr_b = b.build(0.0, 100.0, 10.0)
        assert np.array_equal(arr_a.node_input_w, arr_b.node_input_w)

    def test_chunk_size_changes_no_bit(self, twin, builder, monkeypatch):
        """The painter and both direct routes (the per-job series and the
        cluster superposition) give the same bits at any chunk size."""
        kw = dict(per_gpu=True, track_alloc=True)
        index = AllocationIntervalIndex(twin.schedule.allocations)
        rows = index.active_rows(5.0, 1805.0)
        inputs = (twin.catalog, twin.schedule, twin.chips)

        def run():
            return (
                builder.build(5.0, 1805.0, 10.0, **kw),
                job_power_series_direct(*inputs, dt=60.0, components=True,
                                        seed=twin.spec.seed, rows=rows),
                cluster_power_window(*inputs, 0, 181, seed=twin.spec.seed,
                                     index=index),
            )

        want = run()
        monkeypatch.setattr(traces, "PAINT_CHUNK_CELLS", 64)
        got = run()
        for name in ARRAYS:
            assert np.array_equal(getattr(got[0], name),
                                  getattr(want[0], name)), name
        assert got[1].columns == want[1].columns
        for name in want[1].columns:
            assert np.array_equal(got[1][name], want[1][name]), name
        assert np.array_equal(got[2], want[2])


class TestWindowSplit:
    """Painting is elementwise in time and disjoint in (node, time), so a
    window cut anywhere on the sample grid paints the same bits as the
    whole — what ``Pipeline``'s chunked stages rely on."""

    @given(
        tied_catalog(min_jobs=5, allow_zero_nodes=False),
        st.integers(0, 2),
        st.integers(0, 3000),           # t0
        st.sampled_from([1, 7, 30]),    # dt
        st.integers(1, 60),             # samples left of the cut
        st.integers(1, 60),             # samples right of the cut
    )
    @settings(max_examples=40, deadline=None)
    def test_split_window_equals_whole(
        self, catalog, seed, t0, dt, n_left, n_right
    ):
        # integral instants: both sides sample the same float times
        t0, t1, t2 = float(t0), float(t0 + n_left * dt), float(
            t0 + (n_left + n_right) * dt)
        sched = Scheduler(catalog.config, seed=seed).run(catalog, HORIZON)
        kw = dict(per_gpu=True, track_alloc=True)
        builder = ClusterTraceBuilder(catalog, sched, seed=seed)
        right = builder.build(t1, t2, float(dt), **kw)
        left = builder.build(t0, t1, float(dt), **kw)
        whole = builder.build(t0, t2, float(dt), **kw)  # warm noise cache
        fresh = ClusterTraceBuilder(catalog, sched, seed=seed).build(
            t0, t2, float(dt), **kw)
        for name in ARRAYS:
            want = getattr(whole, name)
            glued = np.concatenate(
                [getattr(left, name), getattr(right, name)], axis=-1)
            assert np.array_equal(glued, want), name
            assert np.array_equal(getattr(fresh, name), want), name
