"""Query canonicalization, validation, and fingerprint identity."""

import pytest

from repro.plan import DERIVED, LEVELS, Query, QueryError


class TestCanonicalization:
    def test_nodes_sorted_deduped(self):
        q = Query(nodes=[5, 1, 5, 3])
        assert q.nodes == (1, 3, 5)

    def test_cabinets_sorted_deduped(self):
        q = Query(cabinets=(2, 0, 2))
        assert q.cabinets == (0, 2)

    def test_metrics_deduped_order_preserved(self):
        q = Query(metrics=["gpu_power_total", "input_power",
                           "gpu_power_total"])
        assert q.metrics == ("gpu_power_total", "input_power")

    def test_metrics_string_rejected(self):
        with pytest.raises(QueryError):
            Query(metrics="input_power")

    def test_floats_coerced(self):
        q = Query(t_begin=0, t_end=60, width=5)
        assert isinstance(q.t_begin, float)
        assert isinstance(q.t_end, float)
        assert isinstance(q.width, float)

    def test_negative_node_rejected(self):
        with pytest.raises(QueryError):
            Query(nodes=(-1, 2))

    def test_non_integer_nodes_rejected(self):
        with pytest.raises(QueryError):
            Query(nodes=("cab-3",))


class TestValidation:
    def test_default_query_valid(self):
        Query().validate()

    @pytest.mark.parametrize("bad", [
        dict(level="warp"),
        dict(metrics=()),
        dict(width=0.0),
        dict(width=-1.0),
        dict(t_begin=10.0, t_end=10.0),
        dict(t_begin=10.0, t_end=5.0),
        dict(metrics=("a", "b")),                      # cluster: one metric
        dict(derived="entropy"),
        dict(derived="pue", level="node",
             metrics=("input_power",)),
        dict(nodes=()),                                # empty selections
        # non-finite numbers slip past ``<= 0`` style comparisons
        dict(width=float("inf")),
        dict(width=float("nan")),
        dict(t_begin=float("nan")),
        dict(t_end=float("nan")),
        dict(cabinets=()),
        dict(metrics="input_power"),                   # a name, not a list
        # ids that are not integers, or whose node ids do not fit int64
        dict(nodes=(1.5,)),
        dict(nodes=(True,)),
        dict(nodes=(float("inf"),)),
        dict(nodes=(1e19,)),
        dict(nodes=(2**63,)),
        dict(cabinets=(10**18,)),
        dict(cabinets=(2**63 // 18,)),
    ])
    def test_rejects(self, bad):
        kw = dict(metrics=("input_power",))
        kw.update(bad)
        with pytest.raises(QueryError):
            Query(**kw).validate()

    def test_infinite_bounds_mean_open(self):
        Query(t_begin=float("-inf"), t_end=float("inf")).validate()

    def test_largest_ids_accepted(self):
        top = 2**63 // 18 - 1  # the last cabinet whose nodes fit int64
        assert Query(cabinets=(top,)).node_selection()[-1] == (
            (top + 1) * 18 - 1)
        assert Query(nodes=(2**63 - 1,)).validate().nodes == (2**63 - 1,)

    def test_node_level_multi_metric_ok(self):
        Query(level="node", metrics=("input_power", "gpu_power_total")
              ).validate()

    def test_levels_and_derived_exported(self):
        assert "cluster" in LEVELS
        assert "pue" in DERIVED


class TestNodeSelection:
    def test_none_means_all(self):
        assert Query().node_selection() is None

    def test_cabinet_expands(self):
        q = Query(cabinets=(1,))
        assert q.node_selection() == tuple(range(18, 36))

    def test_union_of_nodes_and_cabinets(self):
        q = Query(nodes=(0, 5), cabinets=(1,))
        assert q.node_selection() == (0, 5, *range(18, 36))


class TestFingerprint:
    def test_spelling_invariant(self):
        a = Query(nodes=[3, 1, 1], t_begin=0, t_end=60)
        b = Query(nodes=(1, 3), t_begin=0.0, t_end=60.0)
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_selection(self):
        base = Query(t_begin=0.0, t_end=60.0)
        assert base.fingerprint() != Query(t_begin=0.0, t_end=120.0
                                           ).fingerprint()
        assert base.fingerprint() != Query(t_begin=0.0, t_end=60.0,
                                           nodes=(1,)).fingerprint()
        assert base.fingerprint() != Query(t_begin=0.0, t_end=60.0,
                                           level="node").fingerprint()
        assert base.fingerprint() != Query(t_begin=0.0, t_end=60.0,
                                           derived="pue").fingerprint()

    def test_is_hex_sha256(self):
        fp = Query().fingerprint()
        assert len(fp) == 64
        assert set(fp) <= set("0123456789abcdef")

    def test_digests_pinned(self, monkeypatch):
        """Literal digests.  The ``cache_key`` one dates from before
        ``cache_key`` stopped going through ``dataclasses.asdict``:
        pipeline artifacts written by older code must still be found.  The
        query ones were re-pinned when ``Query`` lost its ``time``, ``by``
        and ``pue_overhead`` fields (result-cache keys live in memory)."""
        from repro.datasets import SimulationSpec
        from repro.plan import cache_key

        monkeypatch.delenv("REPRO_RCS_COMPRESSION", raising=False)
        assert Query().fingerprint() == (
            "fa8cc4c680d6b48546b1b1ef4417274c162b78113ab90e483db6b57e201f6150"
        )
        assert Query(t_begin=0.37, t_end=1800.0, nodes=(3, 1, 2),
                     width=30.0).fingerprint() == (
            "392f932a29355bfa0d06c5f4dace3c42b654619d37b990236c6ae4aa0b7dcb1a"
        )
        assert Query(cabinets=(1,), level="node",
                     metrics=("a", "b")).fingerprint() == (
            "41a5b65ad290b4461da184559c5902493635f4267750a3516d2fdd9ea3a3b38d"
        )
        assert Query(derived="pue").fingerprint() == (
            "f2746438d406343d6c5a9d2c255b13ff1debf8128d0fe3efd4f86e501e9adbe1"
        )
        assert cache_key(SimulationSpec(), stage="x", window=(0.0, 1.5)) == (
            "4e8f5fc6731525e59fb49711034fc6e94e62815bf0430c100666e854db0b212f"
        )


class TestWireForm:
    def test_round_trip(self):
        q = Query(t_begin=0.0, t_end=600.0, nodes=(2, 7), width=5.0,
                  level="node", metrics=("input_power", "p0_power"))
        assert Query.from_dict(q.to_dict()) == q

    def test_unknown_field_rejected(self):
        with pytest.raises(QueryError, match="levle"):
            Query.from_dict({"levle": "cluster"})

    def test_non_dict_rejected(self):
        with pytest.raises(QueryError):
            Query.from_dict([1, 2])

    def test_malformed_value_becomes_query_error(self):
        with pytest.raises(QueryError):
            Query.from_dict({"width": "wide"})
