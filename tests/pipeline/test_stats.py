"""Unit tests for PipelineStats counters and reporting."""

from concurrent.futures import ThreadPoolExecutor

from repro.pipeline import PipelineStats


class TestPipelineStats:
    def test_record_accumulates(self):
        s = PipelineStats()
        s.record("a", wall_s=1.0, rows_in=10, rows_out=5, bytes_out=100)
        s.record("a", wall_s=0.5, rows_in=2, cache_hits=3, cache_misses=1)
        st = s.get("a")
        assert st.calls == 2
        assert st.wall_s == 1.5
        assert st.rows_in == 12
        assert st.rows_out == 5
        assert st.bytes_out == 100
        assert st.cache_hits == 3
        assert st.cache_misses == 1

    def test_hit_ratios(self):
        s = PipelineStats()
        assert s.cache_hit_ratio == 0.0
        s.record("a", cache_hits=3, cache_misses=1)
        s.record("b", cache_hits=1, cache_misses=3)
        assert s.get("a").cache_hit_ratio == 0.75
        assert s.cache_hit_ratio == 0.5
        assert s.total("cache_hits") == 4
        assert s.total("cache_misses") == 4

    def test_report_lists_stages_and_rollup(self):
        s = PipelineStats()
        s.record("coarsen", wall_s=0.25, rows_in=100, rows_out=10,
                 cache_hits=2, cache_misses=2)
        text = s.report()
        assert "coarsen" in text
        assert "2/4" in text
        assert "50%" in text

    def test_report_without_cache(self):
        s = PipelineStats()
        s.record("x", wall_s=0.1)
        assert "cache: disabled" in s.report()

    def test_thread_safety(self):
        s = PipelineStats()
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(
                lambda _: s.record("hot", calls=1, rows_out=1), range(400)
            ))
        assert s.get("hot").calls == 400
        assert s.get("hot").rows_out == 400
