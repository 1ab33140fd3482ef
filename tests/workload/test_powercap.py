"""Unit tests for the power-aware scheduler."""

import numpy as np
import pytest

from repro.config import SUMMIT
from repro.workload import (
    PowerAwareScheduler,
    estimate_job_peak_w,
    generate_jobs,
    schedule_jobs,
)


@pytest.fixture(scope="module")
def setup():
    cfg = SUMMIT.scaled(90)
    cat = generate_jobs(cfg, n_jobs=1500, horizon_s=2 * 86400.0, seed=21,
                        utilization_hint=0.9)
    baseline = schedule_jobs(cat, 2 * 86400.0)
    return cfg, cat, baseline


class TestPeakEstimate:
    def test_bounds(self, setup):
        cfg, cat, _ = setup
        est = estimate_job_peak_w(cat)
        assert np.all(est > 0)
        assert np.all(
            est <= cat.table["node_count"] * cfg.node_max_power_w + 1e-6
        )

    def test_estimate_covers_observed_peak(self, setup):
        """The conservative estimate must upper-bound the realized job peak
        (up to chip variation and sensor effects)."""
        cfg, cat, baseline = setup
        from repro.datasets import job_power_series_direct
        from repro.core import job_power_summary
        from repro.machine import ChipPopulation

        series = job_power_series_direct(
            cat, baseline, ChipPopulation(cfg, seed=21), seed=21
        )
        summ = job_power_summary(series)
        est = estimate_job_peak_w(cat)
        est_map = dict(zip(cat.table["allocation_id"].tolist(), est))
        over = 0
        for aid, mx in zip(summ["allocation_id"], summ["max_sum_inp"]):
            if mx > est_map[int(aid)] * 1.15:
                over += 1
        assert over / summ.n_rows < 0.02

    def test_gpu_heavy_jobs_estimate_higher(self, setup):
        _, cat, _ = setup
        est = estimate_job_peak_w(cat) / np.maximum(cat.table["node_count"], 1)
        gb = cat.table["gpu_base"] + cat.table["gpu_amp"]
        hot = est[gb > 0.9]
        cold = est[gb < 0.2]
        if len(hot) > 5 and len(cold) > 5:
            assert hot.mean() > cold.mean() + 300.0


class TestPowerAwareScheduler:
    def test_cap_respected_by_commitment(self, setup):
        cfg, cat, _ = setup
        cap = 0.7 * cfg.n_nodes * cfg.node_max_power_w
        res = PowerAwareScheduler(cap, cfg, seed=21).run_capped(cat, 2 * 86400.0)
        assert res.commitment[1].max() <= cap + 1e-6

    def test_realized_power_under_cap(self, setup):
        cfg, cat, _ = setup
        cap = 0.7 * cfg.n_nodes * cfg.node_max_power_w
        res = PowerAwareScheduler(cap, cfg, seed=21).run_capped(cat, 2 * 86400.0)
        from repro.datasets import cluster_power_direct
        from repro.machine import ChipPopulation

        _, power = cluster_power_direct(
            cat, res.schedule, ChipPopulation(cfg, seed=21),
            horizon_s=2 * 86400.0, seed=21,
        )
        # realized power stays under the cap modulo chip/noise slack
        assert power.max() <= cap * 1.08

    def test_cap_delays_jobs(self, setup):
        cfg, cat, baseline = setup
        cap = 0.6 * cfg.n_nodes * cfg.node_max_power_w
        res = PowerAwareScheduler(cap, cfg, seed=21).run_capped(cat, 2 * 86400.0)
        assert res.n_power_delayed > 0
        # mean start delay grows vs the unconstrained baseline
        from repro.frame.join import join
        from repro.frame.table import Table

        base = baseline.allocations
        b = Table({"allocation_id": base["allocation_id"],
                   "b0": base["begin_time"]})
        j = join(res.schedule.allocations, b, "allocation_id", how="inner")
        sub = join(j, cat.table.select(["allocation_id", "submit_time"]),
                   "allocation_id", how="inner")
        wait_capped = (sub["begin_time"] - sub["submit_time"]).mean()
        wait_base = (sub["b0"] - sub["submit_time"]).mean()
        assert wait_capped >= wait_base

    def test_huge_cap_equals_baseline(self, setup):
        cfg, cat, baseline = setup
        cap = 10 * cfg.n_nodes * cfg.node_max_power_w
        res = PowerAwareScheduler(cap, cfg, seed=21).run_capped(cat, 2 * 86400.0)
        assert res.n_power_delayed == 0
        assert res.schedule.allocations.n_rows == baseline.allocations.n_rows
        assert np.allclose(
            np.sort(res.schedule.allocations["begin_time"]),
            np.sort(baseline.allocations["begin_time"]),
        )

    def test_run_is_a_public_entry_and_starts_clean(self, setup):
        """``run()`` without ``run_capped()`` used to die on unset per-run
        state; both entries now reset it, twice in a row on one instance."""
        from tests.workload.test_event_core import assert_schedules_identical

        cfg, cat, _ = setup
        cap = 0.6 * cfg.n_nodes * cfg.node_max_power_w
        want = PowerAwareScheduler(cap, cfg, seed=21).run_capped(
            cat, 2 * 86400.0)
        sched = PowerAwareScheduler(cap, cfg, seed=21)
        for _ in range(2):
            assert_schedules_identical(
                sched.run(cat, 2 * 86400.0), want.schedule)
        again = sched.run_capped(cat, 2 * 86400.0)
        assert_schedules_identical(again.schedule, want.schedule)
        assert again.n_power_delayed == want.n_power_delayed
        assert np.array_equal(again.commitment[1], want.commitment[1])
