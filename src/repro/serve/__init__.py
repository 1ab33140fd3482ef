"""repro.serve — async multi-tenant telemetry query service.

The serving tier over the columnar archive: declarative queries
(:class:`repro.plan.Query`) are planned into the storage engine's pushdown
path (:mod:`repro.plan`), answered from a fingerprint-keyed result cache
with single-flight dedup (:mod:`repro.serve.cache`), bounded by
multi-tenant admission control (:mod:`repro.serve.session`), and served
in-process (:class:`~repro.serve.server.QueryService`) or over
newline-delimited-JSON TCP (:class:`~repro.serve.server.TelemetryServer`
/ :class:`~repro.serve.client.QueryClient`).

``Query`` and ``plan_query`` are re-exported from :mod:`repro.plan` only
because the benchmark ledger imports them from here; everything else
imports them from :mod:`repro.plan`.
"""

from repro.plan import Query, plan_query
from repro.serve.cache import ResultCache, SingleFlight
from repro.serve.client import QueryClient, ServiceError
from repro.serve.server import (
    QueryService,
    ServiceConfig,
    TelemetryServer,
    table_from_wire,
    table_to_wire,
)
from repro.serve.session import Admission, RejectedError, TenantState
from repro.serve.stats import LatencyReservoir, ServiceStats

__all__ = [
    "Query",
    "plan_query",
    "ResultCache",
    "SingleFlight",
    "Admission",
    "TenantState",
    "RejectedError",
    "ServiceConfig",
    "QueryService",
    "TelemetryServer",
    "QueryClient",
    "ServiceError",
    "table_to_wire",
    "table_from_wire",
    "LatencyReservoir",
    "ServiceStats",
]
