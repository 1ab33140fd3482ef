"""GPU XID failure model (Section 6, Table 4, Figures 13-16).

* :mod:`repro.failures.xid` — the 16-type XID taxonomy with the paper's
  2020 composition, per-type worst-node concentration, thermal-extremity
  skew, and GPU-slot propensities.
* :mod:`repro.failures.model` — the generator: workload-proportional soft
  errors, defect-node concentration (including the NVLink "super-offender"
  accounting for ~97% of NVLink errors), shared defect pools that produce
  the Figure 13 co-occurrence structure, and temperature-at-failure draws
  that reproduce Figure 15's skews.
"""

from repro.failures.xid import XID_TYPES, XidType
from repro.failures.model import FailureLog, generate_failures, job_thermal_summary

__all__ = [
    "XID_TYPES",
    "XidType",
    "FailureLog",
    "generate_failures",
    "job_thermal_summary",
]
