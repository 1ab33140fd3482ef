"""Extension X5 — power-aware scheduling (the paper's conclusion, measured).

"Aggressive power and energy aware ... scheduling policies can have impact
even on HPC deployments like Summit": a cap-admission scheduler trades
queue wait for a flattened power envelope.  This bench sweeps the cap and
reports peak power, mean wait, utilization, and the facility's overcooling
exposure (the cost driver Section 5 identifies).
"""

from benchutil import anchor, emit, to_mw_equiv
from repro.core.report import render_table
from repro.datasets import cluster_power_direct
from repro.frame.join import join
from repro.machine import ChipPopulation
from repro.workload import PowerAwareScheduler, schedule_jobs


def run_sweep(twin_day):
    cat = twin_day.catalog
    cfg = twin_day.config
    horizon = twin_day.spec.horizon_s
    chips = ChipPopulation(cfg, seed=twin_day.spec.seed)
    machine_peak = cfg.n_nodes * cfg.node_max_power_w

    results = {}
    baseline = schedule_jobs(cat, horizon)
    for label, cap_frac in (("none", None), ("85%", 0.85), ("70%", 0.7),
                            ("60%", 0.6)):
        if cap_frac is None:
            sched = baseline
            delayed = 0
        else:
            r = PowerAwareScheduler(cap_frac * machine_peak, cfg,
                                    seed=twin_day.spec.seed).run_capped(
                cat, horizon
            )
            sched = r.schedule
            delayed = r.n_power_delayed
        _, power = cluster_power_direct(
            cat, sched, chips, horizon_s=horizon, seed=twin_day.spec.seed
        )
        al = sched.allocations
        sub = join(al, cat.table.select(["allocation_id", "submit_time"]),
                   "allocation_id", how="inner")
        wait = float((sub["begin_time"] - sub["submit_time"]).mean())
        util = float(
            (al["node_count"] * (al["end_time"] - al["begin_time"])).sum()
            / (cfg.n_nodes * horizon)
        )
        results[label] = {
            "cap_frac": cap_frac,
            "peak_w": float(power.max()),
            "mean_w": float(power.mean()),
            "wait_s": wait,
            "util": util,
            "delayed": delayed,
            "started": al.n_rows,
        }
    return results


def test_power_aware_scheduling(benchmark, twin_day):
    results = benchmark.pedantic(
        run_sweep, args=(twin_day,), rounds=1, iterations=1
    )
    rows = [
        [label,
         f"{to_mw_equiv(d['peak_w'], twin_day):.2f}",
         f"{to_mw_equiv(d['mean_w'], twin_day):.2f}",
         f"{d['wait_s'] / 60.0:.1f}", f"{d['util']:.2f}",
         d["delayed"], d["started"]]
        for label, d in results.items()
    ]
    emit("power_aware", render_table(
        ["cap", "peak (MW eq)", "mean (MW eq)", "mean wait (min)",
         "utilization", "power-delayed jobs", "jobs started"],
        rows,
        title="X5: power-aware scheduling vs the unconstrained baseline",
    ))

    base = results["none"]
    tight = results["60%"]
    # tightening the cap flattens the peak monotonically (2% slack: a
    # loose cap reshuffles placement and chip draws without binding)
    peaks = [results[k]["peak_w"] for k in ("none", "85%", "70%", "60%")]
    assert all(a * 1.02 >= b for a, b in zip(peaks, peaks[1:]))
    # the 60% cap genuinely cuts the peak relative to baseline...
    anchor(tight["peak_w"] < 0.95 * base["peak_w"],
           "a tight cap reduces peak power")
    # ...and the bill is queue wait, not lost jobs
    anchor(tight["wait_s"] >= base["wait_s"],
           "capping increases mean queue wait")
    assert tight["delayed"] > 0
