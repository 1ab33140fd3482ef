"""Workload model: science domains, applications, jobs, and the scheduler.

Generates the analogues of the paper's job-scheduler datasets:

* :mod:`repro.workload.domains` — the DOE Office of Science domain catalog
  with per-domain power/energy tendencies (Figure 8),
* :mod:`repro.workload.apps` — application power-profile archetypes (steady,
  bulk-synchronous, phased, checkpointing, ramped) whose synchronous
  behavior produces the paper's power dynamics (Section 4.2),
* :mod:`repro.workload.jobs` — the job catalog generator (five scheduling
  classes with Table 3 / Figure 7 distributions),
* :mod:`repro.workload.scheduler` — an LSF-like allocator producing the
  allocation history (Datasets C and D): one event-driven core, with
  :mod:`repro.workload.powercap`'s admission control as policy hooks,
* :mod:`repro.workload.traces` — the one allocation → watts kernel and the
  dense trace painter over it.
"""

from repro.workload.domains import DOMAINS, Domain, domain_by_name
from repro.workload.apps import (
    AppProfile,
    PROFILE_KINDS,
    sample_profile,
    profile_utilization,
)
from repro.workload.jobs import JobCatalog, generate_jobs, synthetic_catalog
from repro.workload.scheduler import Scheduler, schedule_jobs
from repro.workload.powercap import (
    PowerAwareScheduler,
    PowerCapResult,
    estimate_job_peak_w,
)
from repro.workload.traces import (
    AllocationIntervalIndex,
    ClusterTraceBuilder,
    allocation_chunks,
    allocation_noise,
    allocation_power,
)

__all__ = [
    "DOMAINS",
    "Domain",
    "domain_by_name",
    "AppProfile",
    "PROFILE_KINDS",
    "sample_profile",
    "profile_utilization",
    "JobCatalog",
    "generate_jobs",
    "synthetic_catalog",
    "Scheduler",
    "schedule_jobs",
    "PowerAwareScheduler",
    "PowerCapResult",
    "estimate_job_peak_w",
    "AllocationIntervalIndex",
    "ClusterTraceBuilder",
    "allocation_chunks",
    "allocation_noise",
    "allocation_power",
]
