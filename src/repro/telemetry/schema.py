"""Per-node metric schema (~100 metrics per node, Table 2-(a)).

The real OpenBMC stream carries power and temperature for every node
component.  The twin materializes the subset the analyses consume and keeps
the full schema here so the data-volume accounting (Table 2) reflects the
true metric count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    """One per-node telemetry channel."""

    name: str
    unit: str
    kind: str  # "power" | "temperature" | "other"


def _build_metrics() -> tuple[Metric, ...]:
    m: list[Metric] = []
    # node-level power
    m.append(Metric("input_power", "W", "power"))
    for ps in range(2):
        m.append(Metric(f"ps{ps}_input_power", "W", "power"))
        m.append(Metric(f"ps{ps}_output_power", "W", "power"))
    # per-socket CPU power and DIMM power
    for s in range(2):
        m.append(Metric(f"p{s}_power", "W", "power"))
        m.append(Metric(f"p{s}_vdd_power", "W", "power"))
        m.append(Metric(f"p{s}_vdn_power", "W", "power"))
        for d in range(8):
            m.append(Metric(f"p{s}_dimm{d}_power", "W", "power"))
    # per-GPU power
    for s in range(2):
        for g in range(3):
            m.append(Metric(f"p{s}_gpu{g}_power", "W", "power"))
    # temperatures
    for g in range(6):
        m.append(Metric(f"gpu{g}_core_temp", "degC", "temperature"))
        m.append(Metric(f"gpu{g}_mem_temp", "degC", "temperature"))
    for s in range(2):
        m.append(Metric(f"p{s}_core_temp_max", "degC", "temperature"))
        m.append(Metric(f"p{s}_core_temp_mean", "degC", "temperature"))
        for d in range(8):
            m.append(Metric(f"p{s}_dimm{d}_temp", "degC", "temperature"))
    # memory buffers (Centaur) per socket
    for s in range(2):
        for c in range(4):
            m.append(Metric(f"p{s}_membuf{c}_power", "W", "power"))
            m.append(Metric(f"p{s}_membuf{c}_temp", "degC", "temperature"))
    # per-socket auxiliary rails
    for s in range(2):
        m.append(Metric(f"p{s}_vcs_power", "W", "power"))
        m.append(Metric(f"p{s}_vio_power", "W", "power"))
    # GPU memory (HBM) power
    for g in range(6):
        m.append(Metric(f"gpu{g}_mem_power", "W", "power"))
    # airflow / fans / misc board sensors
    for f in range(4):
        m.append(Metric(f"fan{f}_speed", "rpm", "other"))
        m.append(Metric(f"fan{f}_power", "W", "power"))
    m.append(Metric("ambient_temp", "degC", "temperature"))
    m.append(Metric("nvme_temp", "degC", "temperature"))
    m.append(Metric("hca_temp", "degC", "temperature"))
    m.append(Metric("bmc_temp", "degC", "temperature"))
    m.append(Metric("12v_rail_voltage", "V", "other"))
    m.append(Metric("12v_rail_current", "A", "other"))
    return tuple(m)


#: the full per-node schema
METRICS: tuple[Metric, ...] = _build_metrics()

#: metric count per node (Table 2-(a): "over 100 metrics")
N_METRICS = len(METRICS)

