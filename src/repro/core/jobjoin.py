"""Job-aware collapses: joining time series with allocations (Datasets 3-6).

``tag_allocations`` interval-joins coarsened node series with the per-node
allocation history; the grouped collapses then produce the artifact
appendix's job-wise series and job-level summaries.
"""

from __future__ import annotations

from repro.frame.groupby import group_by
from repro.frame.join import interval_join
from repro.frame.table import Table


def tag_allocations(coarse: Table, node_allocations: Table) -> Table:
    """Attach ``allocation_id`` to every (node, timestamp) row.

    Rows outside any allocation get -1 (idle nodes are excluded from
    job-aware datasets but kept for cluster-level ones).
    """
    return interval_join(
        coarse,
        node_allocations,
        time="timestamp",
        begin="begin_time",
        end="end_time",
        by="node",
        id_columns=("allocation_id",),
    )


def job_power_series(tagged: Table) -> Table:
    """Dataset 3: per-(job, timestamp) input power across the job's nodes.

    Columns: ``allocation_id, timestamp, count_hostname, sum_inp, mean_inp,
    max_inp``.  Idle rows (allocation_id == -1) are dropped.
    """
    active = tagged.filter(tagged["allocation_id"] >= 0)
    g = group_by(
        active,
        ["allocation_id", "timestamp"],
        {
            "count_hostname": "count",
            "sum_inp": ("input_power_mean", "sum"),
            "mean_inp": ("input_power_mean", "mean"),
            "max_inp": ("input_power_max", "max"),
        },
    )
    return g.sort(["allocation_id", "timestamp"])


def job_power_summary(job_series: Table) -> Table:
    """Dataset 5: per-job aggregates over the job's run.

    Columns: ``allocation_id, max_sum_inp, mean_sum_inp, begin_time,
    end_time`` (begin/end from the observed series extent).
    """
    return group_by(
        job_series,
        "allocation_id",
        {
            "max_sum_inp": ("sum_inp", "max"),
            "mean_sum_inp": ("sum_inp", "mean"),
            "begin_time": ("timestamp", "min"),
            "end_time": ("timestamp", "max"),
        },
    )


def job_component_summary(job_component: Table) -> Table:
    """Dataset 6: per-job CPU/GPU component aggregates.

    Columns follow the artifact: ``mean_mean_cpu_pwr, max_cpu_pwr,
    mean_mean_gpu_pwr, max_gpu_pwr, begin_time, end_time``.
    """
    return group_by(
        job_component,
        "allocation_id",
        {
            "mean_mean_cpu_pwr": ("mean_cpu_power", "mean"),
            "max_cpu_pwr": ("max_cpu_power", "max"),
            "mean_mean_gpu_pwr": ("mean_gpu_power", "mean"),
            "max_gpu_pwr": ("max_gpu_power", "max"),
            "begin_time": ("timestamp", "min"),
            "end_time": ("timestamp", "max"),
        },
    )
