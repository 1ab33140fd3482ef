"""Planner correctness: pushdown pruning and bit-identity with the
single-pass kernels over the filtered in-memory table (the plan is the
one route from archive to answer; the reference never touches it)."""

import numpy as np
import pytest

from repro.core.coarsen import coarsen_telemetry
from repro.core.pue import PUE_OVERHEAD, pue_series
from repro.datasets.store import write_partitioned_series
from repro.parallel.partition import PartitionedDataset
from repro.pipeline import Pipeline, PipelineConfig
from repro.plan import Query, QueryError, plan_query
from tests.oracle import by_rows, single_pass

from .conftest import SPEC, SHARD_S


class TestBitIdentity:
    def test_cluster_matches_pipeline_fused_path(self, dataset, telemetry):
        """Acceptance criterion: the plan run in process, the same plan
        run by Pipeline.telemetry_series, and the single-pass kernels
        agree bit-for-bit over the same archived dataset."""
        q = Query(t_begin=0.0, t_end=SPEC.horizon_s, width=10.0)
        out = plan_query(q, dataset).execute()
        pipe = Pipeline(SPEC, PipelineConfig(max_workers=1))
        assert out == pipe.telemetry_series(dataset, q)
        assert out == single_pass(telemetry, q)

    def test_cluster_matches_single_pass(self, dataset, telemetry):
        out = plan_query(
            Query(t_begin=300.0, t_end=1200.0, width=10.0), dataset
        ).execute()
        assert out == single_pass(
            telemetry, Query(t_begin=300.0, t_end=1200.0))

    def test_node_filter_matches_single_pass(self, dataset, telemetry):
        sel = (3, 7, 20)
        out = plan_query(
            Query(t_begin=0.0, t_end=900.0, nodes=sel, width=10.0), dataset
        ).execute()
        assert out == single_pass(
            telemetry, Query(t_begin=0.0, t_end=900.0, nodes=sel))

    def test_cabinet_filter_matches_explicit_nodes(self, dataset):
        by_cabinet = plan_query(Query(t_begin=0.0, t_end=600.0,
                                      cabinets=(1,)), dataset).execute()
        by_nodes = plan_query(Query(t_begin=0.0, t_end=600.0,
                                    nodes=tuple(range(18, 36))),
                              dataset).execute()
        assert by_cabinet == by_nodes

    def test_open_range_equals_full_range(self, dataset):
        full = plan_query(Query(), dataset).execute()
        explicit = plan_query(
            Query(t_begin=0.0, t_end=SPEC.horizon_s + 10.0), dataset
        ).execute()
        assert full == explicit


class TestLevels:
    def test_node_level_multi_metric(self, dataset, telemetry):
        q = Query(t_begin=0.0, t_end=600.0, level="node",
                  metrics=("input_power", "gpu_power_total"), width=10.0)
        out = plan_query(q, dataset).execute()
        t = np.asarray(telemetry["timestamp"], dtype=np.float64)
        sub = telemetry.filter((t >= 0.0) & (t < 600.0))
        ref = coarsen_telemetry(
            sub, ["input_power", "gpu_power_total"], width=10.0,
        ).sort(["node", "timestamp"])
        assert out == ref

    def test_raw_level_is_projected_slice(self, dataset, telemetry):
        # a range over three shards: whole rows must match, not columns
        # each sorted on its own
        q = Query(t_begin=100.0, t_end=760.0, nodes=(2, 9), level="raw")
        plan = plan_query(q, dataset)
        assert len(plan.shards) >= 3
        out = plan.execute()
        ref = single_pass(telemetry, q)
        assert out.columns == ["node", "timestamp", "input_power"]
        assert by_rows(out) == by_rows(ref)

    def test_raw_answer_owns_its_arrays(self, telemetry, tmp_path):
        # a time-sorted shard is sliced, not masked, so its rows are views
        # of the mapping or decode cache; a one-shard answer is still a copy
        ds = write_partitioned_series(telemetry.sort("timestamp"), tmp_path,
                                      "sorted", day_s=SHARD_S)
        plan = plan_query(Query(t_begin=0.0, t_end=200.0, level="raw"), ds)
        assert len(plan.shards) == 1
        got = plan.execute()
        assert got.n_rows
        for c in got.columns:
            assert got[c].base is None and got[c].flags.writeable, c

    def test_raw_plan_survives_compaction(self, telemetry, tmp_path):
        # planned against the un-compacted shards, executed after another
        # handle compacted them away: each task re-reads its range from
        # the new generation
        ds = write_partitioned_series(telemetry, tmp_path, "t", day_s=150.0)
        q = Query(t_begin=100.0, t_end=700.0, cabinets=(0,), level="raw")
        plan = plan_query(q, ds)
        before = plan.execute()
        stats = PartitionedDataset(ds.root).compact(
            target_rows=2 * ds.partitions[0].n_rows)
        assert stats["rewritten"] > 0
        assert not (ds.root / ds.partitions[plan.shards[0]].filename).exists()
        after = plan.execute()
        assert by_rows(after) == by_rows(single_pass(telemetry, q))
        assert by_rows(after) == by_rows(before)

    def test_derived_pue_columns(self, dataset):
        q = Query(t_begin=0.0, t_end=600.0, derived="pue")
        out = plan_query(q, dataset).execute()
        assert "pue" in out
        it = np.asarray(out["sum_inp"], dtype=np.float64)
        assert np.array_equal(np.asarray(out["pue"]),
                              pue_series(it, PUE_OVERHEAD * it))


class TestPushdown:
    def test_zone_map_shard_pruning(self, dataset):
        plan = plan_query(Query(t_begin=0.0, t_end=SHARD_S), dataset)
        assert len(plan.shards) == 1
        assert plan.n_shards_pruned == dataset.n_partitions - 1
        assert plan.rows_in < dataset.n_rows

    def test_projection_is_minimal(self, dataset):
        plan = plan_query(Query(metrics=("gpu_power_total",)), dataset)
        assert plan.projection == ["node", "timestamp", "gpu_power_total"]

    def test_empty_range_has_result_schema(self, dataset):
        out = plan_query(
            Query(t_begin=1e9, t_end=2e9, derived="pue"), dataset
        ).execute()
        assert out.n_rows == 0
        assert out.columns == ["timestamp", "count_inp", "sum_inp",
                               "mean_inp", "max_inp", "pue"]

    def test_empty_node_level_schema(self, dataset):
        out = plan_query(
            Query(t_begin=1e9, t_end=2e9, level="node"), dataset
        ).execute()
        assert out.n_rows == 0
        assert "input_power_mean" in out.columns


class TestPlanErrors:
    def test_unknown_metric(self, dataset):
        with pytest.raises(QueryError, match="no columns"):
            plan_query(Query(metrics=("warp_core_power",)), dataset)

    def test_unknown_time_column(self, dataset):
        # the time column is the archive's, not the client's to name
        with pytest.raises(QueryError, match="unknown query fields"):
            plan_query(Query.from_dict({"time": "arrival"}), dataset)

    def test_empty_dataset(self, tmp_path):
        empty = PartitionedDataset.create(tmp_path / "empty", "empty")
        with pytest.raises(QueryError, match="empty"):
            plan_query(Query(), empty)

    def test_invalid_query_rejected_at_planning(self, dataset):
        with pytest.raises(QueryError):
            plan_query(Query(level="warp"), dataset)

    @pytest.mark.parametrize("level", ["cluster", "node"])
    def test_width_straddling_a_shard_edge(self, dataset, level):
        # 300 s shards: a 7 s (or 40 s) window has rows on both sides of
        # an edge, and per-shard aggregation would answer it twice
        with pytest.raises(
            QueryError,
            match=r"width 7 .*part-00000\.rcs and part-00001\.rcs",
        ):
            plan_query(Query(width=7.0, level=level), dataset)
        # the pair named is the first one the plan would have touched
        with pytest.raises(
            QueryError,
            match=r"width 40 .*part-00002\.rcs and part-00003\.rcs",
        ):
            plan_query(Query(width=40.0, level=level, t_begin=700.0),
                       dataset)

    def test_width_check_spares_what_cannot_straddle(self, dataset,
                                                     telemetry):
        # no kernels, no windows
        plan_query(Query(width=7.0, level="raw"), dataset).execute()
        # one surviving shard
        out = plan_query(Query(width=7.0, t_begin=0.0, t_end=SHARD_S - 10.0),
                         dataset).execute()
        assert out == single_pass(
            telemetry, Query(width=7.0, t_begin=0.0, t_end=SHARD_S - 10.0))
        # every divisor of the shard extent
        for width in (12.0, 30.0, 60.0, 150.0, SHARD_S):
            out = plan_query(Query(width=width), dataset).execute()
            assert out == single_pass(telemetry, Query(width=width)), width
