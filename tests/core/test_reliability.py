"""Unit tests for reliability analytics."""

import numpy as np
import pytest

from repro.core.reliability import (
    COOCCURRENCE_ALPHA,
    cooccurrence_matrix,
    failure_composition,
    failures_per_project,
    slot_counts,
    thermal_extremity,
)
from repro.failures.model import job_thermal_summary
from repro.failures.xid import XID_TYPES

_NAME_TO_IDX = {t.name: i for i, t in enumerate(XID_TYPES)}


class TestComposition:
    def test_counts_match_log(self, failures):
        comp = failure_composition(failures)
        assert int(comp["count"].sum()) == failures.n_failures

    def test_user_types_dominate(self, failures):
        comp = failure_composition(failures)
        user = comp["count"][comp["user_associated"]].sum()
        hw = comp["count"][~comp["user_associated"]].sum()
        assert user > 20 * max(hw, 1)

    def test_max_node_share_bounds(self, failures):
        comp = failure_composition(failures)
        assert np.all(comp["max_node_share"] >= 0)
        assert np.all(comp["max_node_share"] <= 1)


class TestCooccurrence:
    def test_matrix_shape_and_symmetry(self, twin, failures):
        out = cooccurrence_matrix(failures, twin.config.n_nodes)
        c = out["corr"]
        assert c.shape == (16, 16)
        ok = np.isfinite(c)
        assert np.array_equal(ok, ok.T)
        assert np.allclose(c[ok], c.T[ok])

    def test_microcontroller_driver_pair(self, twin, failures):
        """Figure 13's strongest signal: micro-controller warnings co-occur
        with driver error handling exceptions (shared defect node)."""
        cts = failures.counts_by_type()
        if (cts["Internal microcontroller warning"] >= 5
                and cts["Driver error handling exception"] >= 5):
            out = cooccurrence_matrix(failures, twin.config.n_nodes)
            i = _NAME_TO_IDX["Internal microcontroller warning"]
            j = _NAME_TO_IDX["Driver error handling exception"]
            assert out["corr"][i, j] > 0.5

    def test_retire_cluster(self, twin, failures):
        cts = failures.counts_by_type()
        if cts["Double-bit error"] >= 10 and cts["Page retirement event"] >= 10:
            out = cooccurrence_matrix(failures, twin.config.n_nodes)
            i = _NAME_TO_IDX["Double-bit error"]
            j = _NAME_TO_IDX["Page retirement event"]
            assert out["corr"][i, j] > 0.2

    def test_bonferroni_threshold(self, twin, failures):
        out = cooccurrence_matrix(failures, twin.config.n_nodes)
        k = len(XID_TYPES)
        assert out["threshold"] == COOCCURRENCE_ALPHA / (k * (k - 1) / 2)
        off = ~np.eye(k, dtype=bool)
        kept = off & np.isfinite(out["significant"])
        assert np.all(out["pvalue"][kept] <= out["threshold"])
        dropped = off & (out["pvalue"] > out["threshold"])
        assert np.isnan(out["significant"][dropped]).all()


class TestPerProject:
    def test_top_table(self, twin, failures):
        out = failures_per_project(failures, twin.catalog, twin.schedule, top=10)
        t = out["table"]
        assert t.n_rows <= 10
        rates = t["per_node_hour"]
        assert np.all(np.diff(rates) <= 1e-12)  # sorted descending
        assert np.all(rates >= 0)

    def test_breakdown_matches_counts(self, twin, failures):
        out = failures_per_project(failures, twin.catalog, twin.schedule, top=10)
        assert np.array_equal(
            out["breakdown"].sum(axis=1), out["table"]["n_failures"]
        )

    def test_hardware_only_subset(self, twin, failures):
        allf = failures_per_project(failures, twin.catalog, twin.schedule)
        hw = failures_per_project(
            failures, twin.catalog, twin.schedule, hardware_only=True
        )
        assert hw["table"]["n_failures"].sum() <= allf["table"]["n_failures"].sum()
        # hardware breakdown contains no user-associated types
        user_cols = [i for i, t in enumerate(XID_TYPES) if t.user_associated]
        assert hw["breakdown"][:, user_cols].sum() == 0

    def test_project_spread(self, twin, failures):
        """Figure 14: order-of-magnitude spread across projects."""
        out = failures_per_project(failures, twin.catalog, twin.schedule, top=15)
        r = out["table"]["per_node_hour"]
        if len(r) >= 10 and r[-1] > 0:
            assert r[0] / r[-1] > 3.0


class TestThermalExtremity:
    def test_table_fields(self, twin, failures):
        th = job_thermal_summary(twin.catalog)
        out = thermal_extremity(failures, th)
        t = out["table"]
        assert t.n_rows == 16
        assert set(t.columns) == {
            "xid_name", "n", "z_skewness", "max_temp_c", "frac_ge_60c"
        }

    def test_z_scores_standardized(self, twin, failures):
        th = job_thermal_summary(twin.catalog)
        out = thermal_extremity(failures, th)
        big = out["z_by_type"]["Memory page fault"]
        if len(big) > 200:
            assert abs(np.mean(big)) < 0.5
            assert 0.5 < np.std(big) < 2.0

    def test_right_skew_recovered(self, twin, failures):
        th = job_thermal_summary(twin.catalog)
        out = thermal_extremity(failures, th)
        t = out["table"]
        for name in ("Double-bit error", "Fallen off the bus"):
            row = t.filter(t["xid_name"] == name)
            if row["n"][0] >= 30:
                assert row["z_skewness"][0] > 0.0

    def test_double_bit_max_temp(self, twin, failures):
        th = job_thermal_summary(twin.catalog)
        out = thermal_extremity(failures, th)
        t = out["table"]
        row = t.filter(t["xid_name"] == "Double-bit error")
        if row["n"][0] > 0:
            assert row["max_temp_c"][0] <= 46.1 + 1e-6

    def test_super_offender_dropped(self, twin, failures):
        th = job_thermal_summary(twin.catalog)
        table = thermal_extremity(failures, th)["table"]
        nvl = next(i for i, x in enumerate(XID_TYPES) if "NVLINK" in x.name)
        t = failures.table
        nvlink = t["xid_index"] == nvl
        eligible = (nvlink & (t["allocation_id"] > 0)
                    & np.isfinite(t["gpu_temp_c"]))
        n_nvlink = int(table["n"][nvl])
        assert n_nvlink <= int(eligible.sum())
        nodes, counts = np.unique(t["node"][nvlink], return_counts=True)
        if len(counts) and counts.max() / nvlink.sum() > 0.5:
            # the node holding most NVLink failures is out of the figure
            worst = eligible & (t["node"] == nodes[np.argmax(counts)])
            assert n_nvlink <= int(eligible.sum()) - int(worst.sum())


class TestSlotCounts:
    def test_totals(self, failures):
        out = slot_counts(failures)
        assert out["matrix"].sum() == failures.n_failures

    def test_gpu0_exposure(self, failures):
        """Single-GPU jobs expose slot 0 the most overall."""
        m = slot_counts(failures)["matrix"].sum(axis=0)
        assert m[0] == m.max()
