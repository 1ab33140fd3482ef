"""Science-domain catalog (Figure 8's breakdown).

The paper's Figure 8 shows per-domain distributions of job max power and
energy for the two leadership classes; variation is attributed to the
dominant codes of each discipline.  We encode each domain with tendencies
that shape the jobs generated for it:

* ``gpu_affinity`` — how GPU-heavy the domain's codes are (0..1),
* ``periodic_prob`` — probability a job is strongly bulk-synchronous,
* ``amp_scale`` — relative amplitude of its periodic swings,
* ``walltime_scale`` — multiplier on the class-typical walltime,
* ``weight`` — share of jobs belonging to the domain,
* ``failure_rate_scale`` — relative GPU soft-error proneness (Figure 14
  shows order-of-magnitude spread across projects).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Domain:
    """One science domain with its workload tendencies."""

    name: str
    weight: float
    gpu_affinity: float
    periodic_prob: float
    amp_scale: float
    walltime_scale: float
    failure_rate_scale: float
    #: number of distinct projects the twin spreads this domain over
    n_projects: int


#: Domain mix loosely matching the OLCF portfolio named in Figure 8 and the
#: introduction (advanced scientific computing, basic energy sciences,
#: biology/environment, fusion, HEP, nuclear physics...).  Weights sum to 1.
DOMAINS: tuple[Domain, ...] = (
    Domain("MaterialsScience", 0.16, 0.85, 0.55, 1.00, 1.0, 1.6, 10),
    Domain("Physics",          0.12, 0.80, 0.50, 0.95, 1.1, 1.2, 8),
    Domain("Chemistry",        0.11, 0.75, 0.45, 0.80, 0.9, 1.0, 8),
    Domain("Engineering",      0.08, 0.55, 0.35, 0.60, 0.8, 0.8, 6),
    Domain("FusionEnergy",     0.07, 0.70, 0.60, 0.90, 1.2, 1.1, 5),
    Domain("Biology",          0.09, 0.65, 0.30, 0.50, 0.9, 0.9, 7),
    Domain("EarthScience",     0.07, 0.45, 0.40, 0.55, 1.3, 0.7, 5),
    Domain("ComputerScience",  0.08, 0.60, 0.25, 0.70, 0.5, 2.2, 6),
    Domain("NuclearPhysics",   0.05, 0.75, 0.55, 0.85, 1.2, 1.0, 4),
    Domain("HighEnergyPhysics",0.05, 0.70, 0.50, 0.80, 1.1, 1.3, 4),
    Domain("Astrophysics",     0.04, 0.80, 0.60, 1.00, 1.4, 1.1, 3),
    Domain("MachineLearning",  0.04, 0.95, 0.40, 0.70, 0.8, 1.8, 4),
    Domain("ClimateScience",   0.02, 0.40, 0.45, 0.50, 1.5, 0.6, 2),
    Domain("Combustion",       0.02, 0.65, 0.55, 0.75, 1.0, 0.9, 2),
)

_BY_NAME = {d.name: d for d in DOMAINS}


def domain_by_name(name: str) -> Domain:
    """Look up a domain; raises ``KeyError`` with the known names."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown domain {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def project_id(domain: Domain, index: int) -> str:
    """Deterministic project identifier, e.g. ``MAT003``."""
    prefix = domain.name[:3].upper()
    return f"{prefix}{index:03d}"
