"""Unit tests for the scheduler."""

import numpy as np
import pytest

from repro.config import SUMMIT
from repro.frame.table import Table
from repro.workload import generate_jobs, schedule_jobs, synthetic_catalog
from repro.workload.jobs import JobCatalog
from repro.workload.scheduler import ScheduleResult, Scheduler


@pytest.fixture(scope="module")
def sched_pair():
    cfg = SUMMIT.scaled(120)
    cat = generate_jobs(cfg, n_jobs=2000, horizon_s=2 * 86400.0, seed=5)
    return cat, schedule_jobs(cat, 2 * 86400.0)


def tiny_catalog(cfg, rows):
    """Hand-built catalog for precise scheduling assertions."""
    n = len(rows)
    table = Table(
        {
            "allocation_id": np.arange(1, n + 1, dtype=np.int64),
            "submit_time": np.array([r[0] for r in rows], dtype=np.float64),
            "node_count": np.array([r[1] for r in rows], dtype=np.int64),
            "sched_class": np.array([r[2] for r in rows], dtype=np.int64),
            "req_walltime_s": np.array([r[3] for r in rows], dtype=np.float64),
            "walltime_s": np.array([r[3] for r in rows], dtype=np.float64),
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
            "duty": np.full(n, 0.8),
            "phase_s": np.zeros(n),
        }
    )
    return JobCatalog(table=table, config=cfg)


class TestInvariants:
    def test_no_node_double_booking(self, sched_pair):
        _, res = sched_pair
        na = res.node_allocations
        order = np.lexsort((na["begin_time"], na["node"]))
        nodes = na["node"][order]
        begins = na["begin_time"][order]
        ends = na["end_time"][order]
        same_node = nodes[1:] == nodes[:-1]
        # on the same node, the next allocation must start at/after this end
        assert np.all(begins[1:][same_node] >= ends[:-1][same_node] - 1e-9)

    def test_started_jobs_get_requested_nodes(self, sched_pair):
        cat, res = sched_pair
        al = res.allocations
        na = res.node_allocations
        counts = {}
        for aid in al["allocation_id"]:
            counts[int(aid)] = int((na["allocation_id"] == aid).sum())
        for aid, nc in zip(al["allocation_id"], al["node_count"]):
            assert counts[int(aid)] == int(nc)

    def test_start_after_submit(self, sched_pair):
        cat, res = sched_pair
        from repro.frame.join import join

        j = join(res.allocations, cat.table.select(["allocation_id", "submit_time"]),
                 "allocation_id")
        assert np.all(j["begin_time"] >= j["submit_time"] - 1e-9)

    def test_duration_equals_walltime(self, sched_pair):
        cat, res = sched_pair
        from repro.frame.join import join

        j = join(res.allocations, cat.table.select(["allocation_id", "walltime_s"]),
                 "allocation_id")
        assert np.allclose(j["end_time"] - j["begin_time"], j["walltime_s"])

    def test_node_ids_valid(self, sched_pair):
        cat, res = sched_pair
        nodes = res.node_allocations["node"]
        assert nodes.min() >= 0
        assert nodes.max() < cat.config.n_nodes

    def test_dropped_plus_started_covers_catalog(self, sched_pair):
        cat, res = sched_pair
        assert res.allocations.n_rows + len(res.dropped) == cat.n_jobs


class TestBehavior:
    def test_immediate_start_when_free(self):
        cfg = SUMMIT.scaled(10)
        cat = tiny_catalog(cfg, [(0.0, 4, 3, 100.0)])
        res = Scheduler(cfg).run(cat, 1000.0)
        assert res.allocations.n_rows == 1
        assert res.allocations["begin_time"][0] == 0.0

    def test_queued_until_release(self):
        cfg = SUMMIT.scaled(10)
        cat = tiny_catalog(cfg, [(0.0, 10, 2, 100.0), (1.0, 10, 2, 50.0)])
        res = Scheduler(cfg).run(cat, 10_000.0)
        al = res.allocations.sort("allocation_id")
        assert al["begin_time"][0] == 0.0
        assert al["begin_time"][1] == pytest.approx(100.0)

    def test_backfill_small_job_jumps_queue(self):
        cfg = SUMMIT.scaled(10)
        # big job occupies all; another big waits; a 2-node job can backfill
        cat = tiny_catalog(
            cfg,
            [(0.0, 8, 2, 1000.0), (1.0, 10, 2, 100.0), (2.0, 2, 5, 50.0)],
        )
        res = Scheduler(cfg).run(cat, 100_000.0)
        al = res.allocations.sort("allocation_id")
        assert al["begin_time"][2] == pytest.approx(2.0)  # backfilled at submit
        assert al["begin_time"][1] >= 1000.0

    def test_leadership_priority(self):
        cfg = SUMMIT.scaled(100)
        # node hog finishes at t=100; then class1 and class5 both fit,
        # class 1 is served first from the queue
        cat = tiny_catalog(
            cfg,
            [
                (0.0, 100, 1, 100.0),
                (1.0, 98, 1, 50.0),
                (2.0, 98, 5, 50.0),
            ],
        )
        res = Scheduler(cfg).run(cat, 100_000.0)
        al = res.allocations.sort("allocation_id")
        assert al["begin_time"][1] == pytest.approx(100.0)
        assert al["begin_time"][2] >= 150.0

    def test_unstartable_job_dropped(self):
        cfg = SUMMIT.scaled(10)
        cat = tiny_catalog(cfg, [(0.0, 10, 2, 10_000.0), (1.0, 10, 2, 10.0)])
        res = Scheduler(cfg).run(cat, 5_000.0)
        assert len(res.dropped) == 1

    def test_nodes_of(self):
        cfg = SUMMIT.scaled(10)
        cat = tiny_catalog(cfg, [(0.0, 3, 4, 10.0)])
        res = Scheduler(cfg).run(cat, 100.0)
        nodes = res.nodes_of(1)
        assert len(nodes) == 3
        assert len(set(nodes.tolist())) == 3
        assert nodes.min() >= 0 and nodes.max() < 10

    def test_nodes_of_matches_a_table_scan(self, sched_pair):
        """The index answers what a scan of the per-node table answers,
        for every allocation and for ids with no rows."""
        _, res = sched_pair
        na = res.node_allocations
        for aid in [*res.allocations["allocation_id"].tolist(), -1, 10**9]:
            want = np.sort(na["node"][na["allocation_id"] == aid])
            assert np.array_equal(res.nodes_of(aid), want)

    def test_nodes_of_sorts_an_unordered_table(self):
        ids = np.array([5, 3, 5, 3, 3], dtype=np.int64)
        nodes = np.array([9, 2, 1, 0, 7], dtype=np.int64)
        res = ScheduleResult(Table({"allocation_id": ids[:0]}),
                             Table({"allocation_id": ids, "node": nodes}),
                             ids[:0])
        assert res.nodes_of(3).tolist() == [0, 2, 7]
        assert res.nodes_of(5).tolist() == [1, 9]
        assert res.nodes_of(4).tolist() == []
        assert not res.nodes_of(3).flags.writeable

    def test_placement_scatters_across_machine(self):
        """Allocations spread over the floor (Summit CSM behavior), so every
        switchboard carries live load."""
        cfg = SUMMIT.scaled(100)
        rows = [(float(i), 10, 3, 10_000.0) for i in range(5)]
        res = Scheduler(cfg).run(tiny_catalog(cfg, rows), 100_000.0)
        nodes = res.node_allocations["node"]
        # 50 busy nodes out of 100: both halves of the machine see load
        assert (nodes < 50).any() and (nodes >= 50).any()

    def test_utilization_reasonable(self, sched_pair):
        cat, res = sched_pair
        al = res.allocations
        node_seconds = float(
            (al["node_count"] * (al["end_time"] - al["begin_time"])).sum()
        )
        capacity = cat.config.n_nodes * 2 * 86400.0
        assert node_seconds / capacity > 0.5


class TestDrainWindows:
    def test_no_starts_inside_drain(self):
        cfg = SUMMIT.scaled(20)
        rows = [(float(i * 50), 2, 5, 40.0) for i in range(40)]
        res = Scheduler(cfg, drain_windows=((500.0, 1000.0),)).run(
            tiny_catalog(cfg, rows), 100_000.0
        )
        begins = res.allocations["begin_time"]
        assert not np.any((begins >= 500.0) & (begins < 1000.0))

    def test_queue_drains_after_window(self):
        cfg = SUMMIT.scaled(20)
        rows = [(float(i * 50), 2, 5, 40.0) for i in range(40)]
        res = Scheduler(cfg, drain_windows=((500.0, 1000.0),)).run(
            tiny_catalog(cfg, rows), 100_000.0
        )
        # everything submitted still runs eventually
        assert res.allocations.n_rows == 40

    def test_running_jobs_unaffected(self):
        cfg = SUMMIT.scaled(10)
        cat = tiny_catalog(cfg, [(0.0, 10, 2, 2000.0)])
        res = Scheduler(cfg, drain_windows=((500.0, 1000.0),)).run(cat, 10_000.0)
        assert res.allocations["end_time"][0] == pytest.approx(2000.0)

    def test_twin_spec_drains_power(self):
        from repro.datasets import SimulationSpec, simulate_twin

        spec = SimulationSpec(
            n_nodes=45, n_jobs=900, horizon_s=86_400.0, seed=5,
            utilization_hint=0.9,
            drain_windows=((40_000.0, 55_000.0),),
        )
        twin = simulate_twin(spec)
        times, power = twin.cluster_power(dt=300.0)
        idle = twin.config.n_nodes * twin.config.node_idle_w
        in_drain = (times >= 47_000.0) & (times < 55_000.0)
        outside = (times < 35_000.0)
        assert power[in_drain].min() < power[outside].mean() * 0.85


class TestMalformedRows:
    """A row the event loop cannot order is refused up front: a NaN time
    compares false against everything, so it would stall the completion
    heap or reorder submits without any error."""

    N_NODES = 16

    def catalog(self, column=None, value=None, row=7):
        cfg = SUMMIT.scaled(self.N_NODES)
        cat = synthetic_catalog(cfg, n_jobs=200, horizon_s=86_400.0, seed=4)
        if column is None:
            return cat
        col = cat.table[column].copy()
        col[row] = value
        return JobCatalog(cat.table.with_column(column, col), cfg)

    @pytest.mark.parametrize("column, value", [
        ("walltime_s", np.nan),
        ("walltime_s", np.inf),
        ("walltime_s", -1.0),
        ("submit_time", np.nan),
        ("submit_time", -np.inf),
        ("node_count", -1),
    ])
    def test_bad_value_names_column_row_and_value(self, column, value):
        cat = self.catalog(column, value)
        aid = int(cat.table["allocation_id"][7])
        with pytest.raises(ValueError) as err:
            Scheduler(cat.config).run(cat, 86_400.0)
        msg = str(err.value)
        assert repr(column) in msg
        assert f"allocation_id {aid}" in msg
        assert repr(cat.table[column][7].item()) in msg

    def test_zero_walltime_and_zero_nodes_are_valid(self):
        cat = self.catalog("walltime_s", 0.0)
        Scheduler(cat.config).run(cat, 86_400.0)
        cat = self.catalog("node_count", 0)
        Scheduler(cat.config).run(cat, 86_400.0)

    def test_job_wider_than_machine_is_dropped(self):
        cat = self.catalog("node_count", self.N_NODES + 1)
        aid = int(cat.table["allocation_id"][7])
        res = Scheduler(cat.config).run(cat, 86_400.0)
        assert aid in res.dropped.tolist()
        assert aid not in res.allocations["allocation_id"].tolist()
        assert res.allocations.n_rows + len(res.dropped) == cat.n_jobs

