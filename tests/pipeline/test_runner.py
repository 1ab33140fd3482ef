"""Runner-level behavior: windowing, config validation, laziness, stats."""

import time

import numpy as np
import pytest

from repro.datasets import SimulationSpec, simulate_twin
from repro.frame.table import Table
from repro.pipeline import Pipeline, PipelineConfig, chunk_windows
from repro.pipeline.runner import _Timed

DAY = 86_400.0
TINY = SimulationSpec(n_nodes=8, n_jobs=20, horizon_s=0.2 * DAY, seed=11)


class TestChunkWindows:
    def test_covers_horizon_without_gaps(self):
        wins = chunk_windows(10 * DAY, 3 * DAY)
        assert wins[0][0] == 0.0
        assert wins[-1][1] == 10 * DAY
        for (a0, a1), (b0, _) in zip(wins, wins[1:]):
            assert a1 == b0
            assert a1 > a0

    def test_last_window_clipped(self):
        wins = chunk_windows(2.5 * DAY, DAY)
        assert len(wins) == 3
        assert wins[-1] == (2 * DAY, 2.5 * DAY)

    def test_empty_horizon(self):
        assert chunk_windows(0.0, DAY) == []
        assert chunk_windows(-1.0, DAY) == []

    def test_bad_chunk_rejected(self):
        with pytest.raises(ValueError):
            chunk_windows(DAY, 0.0)


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.chunk_seconds == DAY
        assert cfg.backend == "threads"
        assert cfg.cache_dir is None

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(ValueError):
            PipelineConfig(chunk_seconds=0.0)
        with pytest.raises(ValueError):
            PipelineConfig(chunk_seconds=-5.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and > 0"):
                PipelineConfig(chunk_seconds=bad)

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            Pipeline(TINY, PipelineConfig(backend="dask"))


class TestConstruction:
    def test_rejects_wrong_source(self):
        with pytest.raises(TypeError, match="SimulationSpec or TwinData"):
            Pipeline(42)

    def test_twin_is_lazy_from_spec(self):
        pipe = Pipeline(TINY, PipelineConfig(backend="serial"))
        assert pipe._twin is None
        assert pipe.stats.get("simulate").calls == 0
        twin = pipe.twin
        assert twin.spec == TINY
        assert pipe.stats.get("simulate").calls == 1
        assert pipe.twin is twin
        assert pipe.stats.get("simulate").calls == 1

    def test_twin_data_pipeline_helper(self, twin_small):
        pipe = Pipeline(twin_small)
        assert isinstance(pipe, Pipeline)
        assert pipe.twin is twin_small
        # no simulate stage when the twin is handed in pre-built
        assert pipe.stats.get("simulate").calls == 0


class TestStatsIntegration:
    def test_stage_counters_after_run(self):
        twin = simulate_twin(TINY)
        pipe = Pipeline(twin, PipelineConfig(chunk_seconds=0.05 * DAY,
                                             backend="serial"))
        times, power = pipe.cluster_power()
        st = pipe.stats.get("cluster_power")
        assert st.calls == 4  # 0.2 d horizon / 0.05 d chunks
        assert st.rows_in == len(times)
        assert st.rows_out == len(power)
        assert st.wall_s > 0
        report = pipe.stats.report()
        assert "cluster_power" in report

    def test_fanned_out_stage_records_wall_below_task_seconds(self):
        """Two 0.2 s tasks on two threads: the stage takes ~0.2 s of wall
        time while its tasks ran 0.4 s between them."""
        pipe = Pipeline(TINY, PipelineConfig(backend="threads",
                                             max_workers=2))

        def nap(seconds):
            time.sleep(seconds)
            return Table({"x": np.zeros(1)})

        pipe._run_stage("nap", [0.2, 0.2], lambda: _Timed(nap))
        st = pipe.stats.get("nap")
        assert st.task_s >= 0.4
        assert st.wall_s < st.task_s
        assert "simulate" not in pipe.stats.records  # nothing built a twin

    def test_warm_rerun_skips_majority_of_stage_work(self, tmp_path):
        # the PR's acceptance criterion: >= 50% of chunk tasks served from
        # cache on a warm re-run (here: all of them)
        cfg = PipelineConfig(chunk_seconds=0.05 * DAY, backend="serial",
                             cache_dir=tmp_path / "c")
        twin = simulate_twin(TINY)
        cold = Pipeline(twin, cfg)
        cold.cluster_power()
        cold.job_series()
        total = cold.stats.total("cache_misses")
        assert total >= 2

        warm = Pipeline(twin, cfg)
        wt, wp = warm.cluster_power()
        ws = warm.job_series()
        assert warm.stats.cache_hit_ratio >= 0.5
        assert warm.stats.total("cache_hits") == total
        _, cp = Pipeline(twin, PipelineConfig(
            chunk_seconds=0.05 * DAY, backend="serial")).cluster_power()
        assert np.array_equal(wp, cp)
        assert ws.n_rows > 0

    def test_bytes_out_counted_when_caching(self, tmp_path):
        twin = simulate_twin(TINY)
        pipe = Pipeline(twin, PipelineConfig(
            chunk_seconds=0.1 * DAY, backend="serial",
            cache_dir=tmp_path / "c"))
        pipe.cluster_power()
        assert pipe.stats.get("cluster_power").bytes_out > 0
