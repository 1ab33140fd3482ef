"""Job energy integration (Dataset 7, Figures 6 and 8's energy axis)."""

from __future__ import annotations

from repro.config import SUMMIT
from repro.frame.groupby import group_by
from repro.frame.table import Table


def job_energy(job_series: Table) -> Table:
    """Per-job total energy from the job-wise power series.

    Energy is the window-width-weighted sum of the per-window summed power
    (each row of Dataset 3 represents one ``SUMMIT.coarsen_window_s``
    window of the whole allocation).  Columns: ``allocation_id, energy,
    num_nodes, begin_time, end_time``.
    """
    work = job_series.with_column(
        "_window_j", job_series["sum_inp"] * SUMMIT.coarsen_window_s
    )
    return group_by(
        work,
        "allocation_id",
        {
            "energy": ("_window_j", "sum"),
            "num_nodes": ("count_hostname", "max"),
            "begin_time": ("timestamp", "min"),
            "end_time": ("timestamp", "max"),
        },
    )
