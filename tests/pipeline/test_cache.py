"""Unit tests for the content-addressed artifact cache."""

import numpy as np
import pytest

from repro.datasets import SimulationSpec
from repro.frame.table import Table
from repro.frame.io import load_npz, save_npz
from repro.pipeline import ArtifactCache
from repro.plan import cache_key


def _table():
    return Table({
        "t": np.arange(5, dtype=np.float64),
        "v": np.array([1.5, -2.0, 0.0, 3.25, 7.125]),
        "n": np.arange(5, dtype=np.int64),
    })


class TestCacheKey:
    def test_deterministic(self):
        spec = SimulationSpec(n_nodes=8, seed=3)
        assert cache_key(spec, stage="x", dt=10.0) == cache_key(
            SimulationSpec(n_nodes=8, seed=3), stage="x", dt=10.0
        )

    def test_sensitive_to_every_part(self):
        spec = SimulationSpec(n_nodes=8, seed=3)
        base = cache_key(spec, stage="x", dt=10.0)
        assert cache_key(SimulationSpec(n_nodes=9, seed=3), stage="x", dt=10.0) != base
        assert cache_key(spec, stage="y", dt=10.0) != base
        assert cache_key(spec, stage="x", dt=60.0) != base

    def test_float_int_distinct(self):
        # 10 and 10.0 address different artifacts: stage params are typed
        assert cache_key(dt=10) != cache_key(dt=10.0)

    def test_is_hex_sha256(self):
        k = cache_key("anything")
        assert len(k) == 64
        assert set(k) <= set("0123456789abcdef")

    def test_rejects_unhashable_payload(self):
        with pytest.raises(TypeError):
            cache_key(object())

    def test_dataclass_shape_is_what_asdict_gave(self):
        """Artifacts are addressed by these digests, so the canonical form
        of a dataclass must stay what ``dataclasses.asdict`` produced: the
        outermost one tagged with its class name, every dataclass inside
        it — under a field, a tuple, a dict value — a plain dict."""
        import dataclasses

        from repro.plan import _canonical

        @dataclasses.dataclass(frozen=True)
        class Leaf:
            w: float = -0.0
            tags: tuple = ("a", 1, None, True)

        @dataclasses.dataclass
        class Tree:
            leaf: Leaf
            leaves: tuple
            by_name: dict
            n: int = 3

        tree = Tree(Leaf(), (Leaf(1.5), [Leaf(2.5)]), {"z": Leaf(0.1), "a": 2})

        def via_asdict(obj):
            if dataclasses.is_dataclass(obj):
                return {"__dataclass__": type(obj).__name__,
                        "fields": via_asdict(dataclasses.asdict(obj))}
            if isinstance(obj, dict):
                return {k: via_asdict(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [via_asdict(v) for v in obj]
            return repr(obj) if isinstance(obj, float) else obj

        for obj in (tree, [tree, Leaf()], {"k": (Leaf(), 1.0)}):
            assert _canonical(obj) == via_asdict(obj)
        assert _canonical(tree)["fields"]["leaf"] == {
            "w": "-0.0", "tags": ["a", 1, None, True]
        }


class TestArtifactCache:
    def test_roundtrip_bit_identical(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        t = _table()
        key = cache_key("roundtrip")
        assert cache.get(key) is None
        n = cache.put(key, t)
        assert n > 0
        got = cache.get(key)
        assert got is not None
        assert got.columns == t.columns
        for c in t.columns:
            assert got[c].dtype == t[c].dtype
            assert np.array_equal(got[c], t[c])

    def test_contains_and_layout(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache_key("layout")
        assert not cache.path(key).exists()
        cache.put(key, _table())
        assert cache.path(key).exists()
        assert cache.path(key).parent.name == key[:2]

    def test_empty_table_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        empty = Table({"a": np.empty(0, np.int64), "b": np.empty(0, np.float64)})
        key = cache_key("empty")
        cache.put(key, empty)
        got = cache.get(key)
        assert got.n_rows == 0
        assert got["a"].dtype == np.int64

    def test_malformed_key_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ValueError):
            cache.path("../escape")
        with pytest.raises(ValueError):
            cache.path("short")

    def test_torn_entry_reads_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache_key("torn")
        p = cache.path(key)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(b"not an npz")
        assert cache.get(key) is None

    def test_no_temp_files_left(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(cache_key("tmpcheck"), _table())
        leftovers = [p for p in tmp_path.rglob("*") if "tmp" in p.name]
        assert leftovers == []


class TestAtomicPut:
    def test_round_trip_and_no_leftovers(self, tmp_path):
        t = _table()
        n = save_npz(t, tmp_path / "out.npz")
        assert n == (tmp_path / "out.npz").stat().st_size
        assert load_npz(tmp_path / "out.npz") == t
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.npz"]

    def test_replaces_existing_entry(self, tmp_path):
        path = tmp_path / "out.npz"
        save_npz(_table(), path)
        bigger = Table({"t": np.arange(50, dtype=np.float64)})
        save_npz(bigger, path)
        assert load_npz(path) == bigger


class TestArtifactCacheEviction:
    def test_unbounded_by_default(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(5):
            cache.put(cache_key("nolimit", i=i), _table())
        assert len(list(tmp_path.glob("??/*.npz"))) == 5
