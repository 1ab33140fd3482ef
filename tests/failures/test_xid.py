"""Unit tests for the XID taxonomy."""

import numpy as np
import pytest

from repro.failures.xid import TOTAL_ANNUAL_FAILURES, XID_TYPES

BY_NAME = {t.name: t for t in XID_TYPES}


class TestTaxonomy:
    def test_sixteen_types(self):
        assert len(XID_TYPES) == 16

    def test_total_matches_paper(self):
        assert TOTAL_ANNUAL_FAILURES == 251_859

    def test_table4_counts(self):
        expect = {
            "Memory page fault": 186_496,
            "Graphics engine exception": 32_339,
            "Stopped processing": 22_649,
            "NVLINK error": 8_736,
            "Page retirement event": 851,
            "Page retirement failure": 210,
            "Double-bit error": 179,
            "Preemptive cleanup": 162,
            "Internal microcontroller warning": 74,
            "Graphics engine fault": 44,
            "Fallen off the bus": 31,
            "Internal microcontroller halt": 29,
            "Driver firmware error": 26,
            "Driver error handling exception": 21,
            "Corrupted push buffer stream": 11,
            "Graphics engine class error": 1,
        }
        for t in XID_TYPES:
            assert t.annual_count == expect[t.name]

    def test_user_association_split(self):
        """Table 4's double ruler: the four big types are user-associated."""
        user = {t.name for t in XID_TYPES if t.user_associated}
        assert user == {
            "Memory page fault",
            "Graphics engine exception",
            "Stopped processing",
            "NVLINK error",
        }

    def test_nvlink_super_offender_encoded(self):
        nv = BY_NAME["NVLINK error"]
        assert nv.max_node_share == pytest.approx(0.969)
        assert nv.defect_share > 0.95

    def test_defect_share_covers_max_node_share(self):
        for t in XID_TYPES:
            assert t.defect_share >= t.max_node_share - 1e-9, t.name

    def test_double_bit_temp_cap(self):
        assert BY_NAME["Double-bit error"].temp_cap_c == pytest.approx(46.1)

    def test_no_left_skew(self):
        """Figure 15: almost no distributions are left-skewed; only the
        graphics engine fault may lean warm."""
        for t in XID_TYPES:
            if t.name != "Graphics engine fault":
                assert t.z_skew >= 0.0, t.name

    def test_right_skew_types(self):
        for name in ("Double-bit error", "Fallen off the bus",
                     "Internal microcontroller warning",
                     "Page retirement failure"):
            assert BY_NAME[name].z_skew > 0.5, name

    def test_slot_weights_length(self):
        for t in XID_TYPES:
            assert len(t.slot_weights) == 6
            assert all(w > 0 for w in t.slot_weights)

    def test_gpu4_bumps(self):
        """Figure 16: double-bit and page-retirement events spike on GPU 4."""
        for name in ("Double-bit error", "Page retirement event"):
            w = BY_NAME[name].slot_weights
            assert w[4] == max(w[1:]), name

    def test_shared_defect_groups(self):
        retire = {t.name for t in XID_TYPES if t.defect_group == "retire"}
        assert {"Double-bit error", "Preemptive cleanup",
                "Page retirement event", "Page retirement failure"} <= retire
        driver = {t.name for t in XID_TYPES if t.defect_group == "driver"}
        assert {"Internal microcontroller warning",
                "Driver error handling exception"} <= driver
