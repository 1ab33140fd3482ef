"""Summit machine model: floor topology and component power models.

* :mod:`repro.machine.topology` — nodes -> cabinets -> floor rows -> main
  switchboards (MSBs), plus intra-node GPU slot / cooling order (Figure 1).
* :mod:`repro.machine.components` — V100 / Power9 power models with per-chip
  manufacturing variation (Sections 5-6 attribute temperature and power
  spread partly to manufacturing).
* :mod:`repro.machine.node` — the AC922 node: component power -> DC bus ->
  two power supplies -> wall (input) power.
"""

from repro.machine.topology import Topology
from repro.machine.components import ChipPopulation
from repro.machine.node import NodePowerModel

__all__ = [
    "Topology",
    "ChipPopulation",
    "NodePowerModel",
]
