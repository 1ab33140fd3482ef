"""Shared fixtures: a small simulated deployment reused across test modules.

Session-scoped because twin generation is the expensive part; tests treat
the twin as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import SimulationSpec, simulate_twin

# tier-1 must give the same verdict on every run: examples are derived from
# each test's source, and no database replays (or stores) past failures.
# ``--hypothesis-profile=default`` brings the randomized search back.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def small_spec() -> SimulationSpec:
    return SimulationSpec(
        n_nodes=90,
        n_jobs=900,
        horizon_s=86_400.0,
        seed=7,
        failure_intensity=40.0,
    )


@pytest.fixture(scope="session")
def twin(small_spec):
    return simulate_twin(small_spec)


@pytest.fixture(scope="session")
def job_series(twin):
    return twin.job_series()


@pytest.fixture(scope="session")
def job_series_components(twin):
    return twin.job_series(components=True)


@pytest.fixture(scope="session")
def failures(twin):
    return twin.failures


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
