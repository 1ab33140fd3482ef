"""Unit tests for the science-domain catalog."""

import numpy as np
import pytest

from repro.workload.domains import (
    DOMAINS,
    domain_by_name,
    project_id,
)


class TestCatalog:
    def test_weights_sum_to_one(self):
        assert np.isclose(sum(d.weight for d in DOMAINS), 1.0, atol=1e-9)

    def test_names_unique(self):
        names = [d.name for d in DOMAINS]
        assert len(names) == len(set(names))

    def test_lookup(self):
        d = domain_by_name("MaterialsScience")
        assert d.gpu_affinity > 0.5

    def test_lookup_unknown(self):
        with pytest.raises(KeyError, match="unknown domain"):
            domain_by_name("Alchemy")

    def test_parameters_in_range(self):
        for d in DOMAINS:
            assert 0.0 <= d.gpu_affinity <= 1.0
            assert 0.0 <= d.periodic_prob <= 1.0
            assert d.amp_scale > 0
            assert d.walltime_scale > 0
            assert d.failure_rate_scale > 0
            assert d.n_projects >= 1

    def test_project_id_format(self):
        d = domain_by_name("Physics")
        assert project_id(d, 3) == "PHY003"

    def test_failure_scale_spread(self):
        """Figure 14 needs order-of-magnitude project spread; domains alone
        must already span a meaningful range."""
        scales = [d.failure_rate_scale for d in DOMAINS]
        assert max(scales) / min(scales) > 3.0
