"""Bit-identity of the two cold-scan kernels against what they replace.

* Composite integer group keys take one sort: the keys combine
  mixed-radix into one int64 and follow the single-key route (stable
  ``argsort`` + run-length starts).  The reference is ``_plan_generic``
  (factorize + code ``argsort``), and every aggregation in
  :data:`~repro.frame.groupby.AGGREGATIONS` must come out byte for byte
  the same.  Keys whose radix product reaches 2**62, or that hold a
  value outside int64, fall back to the reference itself.
* ``Table[bool_mask]`` resolves the mask to row indices once and gathers
  every column by index; the reference is per-column boolean indexing.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.frame.groupby as groupby_mod
from repro.frame import AGGREGATIONS, Table, group_by, open_rcs, save_rcs

INT_DTYPES = [np.dtype(s) for s in
              ("i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8")]

#: every aggregation over a float column, plus an int column
AGGS = {
    "n": "count",
    **{f"v_{how}": ("v", how) for how in AGGREGATIONS},
    "i_min": ("i", "min"),
    "i_max": ("i", "max"),
    "i_sum": ("i", "sum"),
}


@contextmanager
def generic_kernel():
    """Every ``group_by`` inside goes through the factorize +
    code-argsort kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groupby_mod, "_resolve_plan",
                   lambda arrays, presorted: groupby_mod._plan_generic(arrays))
        yield


def generic_group_by(table, keys, aggs):
    with generic_kernel():
        return group_by(table, keys, aggs)


def assert_same_bytes(got: Table, want: Table) -> None:
    assert got.columns == want.columns
    for c in want.columns:
        assert got[c].dtype == want[c].dtype, c
        assert got[c].tobytes() == want[c].tobytes(), c


def fits_one_int64(arrays) -> bool:
    """The mixed-radix route's precondition, in Python integers."""
    bounds = [(int(a.min()), int(a.max())) for a in arrays]
    return (all(hi < 2**63 for _, hi in bounds)
            and math.prod(hi - lo + 1 for lo, hi in bounds) < 2**62)


@st.composite
def int_key(draw, n):
    """One integer key column: a few distinct values of any integer dtype
    (negatives, dtype extremes, or one constant), repeated over ``n``
    rows so groups hold many rows."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    pool = draw(st.lists(st.integers(int(info.min), int(info.max)),
                         min_size=1, max_size=5, unique=True))
    return draw(hnp.arrays(dtype, n, elements=st.sampled_from(pool)))


@st.composite
def keyed_tables(draw):
    n = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 300)))
    n_keys = draw(st.integers(1, 3))
    cols = {f"k{j}": draw(int_key(n)) for j in range(n_keys)}
    cols["v"] = draw(hnp.arrays(
        np.float64, n,
        elements=st.floats(-1e6, 1e6) | st.just(float("nan")),
    ))
    cols["i"] = np.arange(n, dtype=np.int64)[::-1].copy()
    return Table(cols), [f"k{j}" for j in range(n_keys)]


class TestCompositeIntegerKeys:
    @given(keyed_tables())
    @settings(max_examples=200, deadline=None)
    def test_every_aggregation_matches_generic(self, case):
        table, keys = case
        want = generic_group_by(table, keys, AGGS)
        assert_same_bytes(group_by(table, keys, AGGS, presorted=False), want)
        assert_same_bytes(group_by(table, keys, AGGS), want)

    @given(keyed_tables())
    @settings(max_examples=200, deadline=None)
    def test_plan_matches_generic(self, case):
        table, keys = case
        if table.n_rows == 0:
            return
        arrays = [table[k] for k in keys]
        combined = groupby_mod._mixed_radix(arrays)
        assert (combined is not None) == fits_one_int64(arrays)
        got = groupby_mod._resolve_plan(arrays, False)
        want = groupby_mod._plan_generic(arrays)
        assert np.array_equal(got.order, want.order)
        assert np.array_equal(got.starts, want.starts)
        assert np.array_equal(got.counts, want.counts)
        for a, b in zip(got.key_uniques, want.key_uniques):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_time_major_node_window_takes_one_sort(self, monkeypatch):
        """A time-major shard grouped by ``(node, window)``: no factorize."""
        def refuse(arrays):
            raise AssertionError("took the generic kernel")

        node = np.tile(np.arange(72, dtype=np.int64), 120)
        win = np.repeat(np.arange(12, dtype=np.int64), 720)
        table = Table({"node": node, "_win": win, "v": np.arange(8640.0),
                       "i": np.arange(8640, dtype=np.int64)})
        want = generic_group_by(table, ["node", "_win"], AGGS)
        monkeypatch.setattr(groupby_mod, "_plan_generic", refuse)
        assert_same_bytes(group_by(table, ["node", "_win"], AGGS), want)

    @pytest.mark.parametrize("k0, k1, fits", [
        # radix product 2**31 * (2**31 - 1): just under 2**62
        ([0, 2**31 - 1], [-(2**30), 2**30 - 2], True),
        # 2**31 * 2**31 == 2**62: falls back
        ([0, 2**31 - 1], [-(2**30), 2**30 - 1], False),
        # int64 extremes on one key
        ([-(2**63), 2**63 - 1], [0, 1], False),
        # keys far from zero: times the radix they overflow int64 unless
        # offset by their minimum first
        ([2**62 - 1, 2**62], [0, 1], True),
        ([-(2**62) - 1, -(2**62)], [0, 1], True),
    ])
    def test_radix_product_bound(self, k0, k1, fits):
        rng = np.random.default_rng(5)
        a = np.array(k0, dtype=np.int64)[rng.integers(0, 2, 400)]
        b = np.array(k1, dtype=np.int64)[rng.integers(0, 2, 400)]
        a[:2], b[:2] = k0, k1  # both bounds present in each key
        table = Table({"a": a, "b": b, "v": rng.normal(size=400),
                       "i": np.arange(400, dtype=np.int64)})
        assert (groupby_mod._mixed_radix([a, b]) is not None) == fits
        assert_same_bytes(group_by(table, ["a", "b"], AGGS),
                          generic_group_by(table, ["a", "b"], AGGS))

    def test_uint64_above_int64_falls_back(self):
        big = np.array([2**63 + 5, 3, 2**63 + 5, 3], dtype=np.uint64)
        small = np.array([1, 1, 0, 1], dtype=np.uint8)
        assert groupby_mod._mixed_radix([big, small]) is None
        table = Table({"a": big, "b": small, "v": np.arange(4.0),
                       "i": np.arange(4, dtype=np.int64)})
        got = group_by(table, ["a", "b"], AGGS)
        assert got["a"].tolist() == [3, 2**63 + 5, 2**63 + 5]
        assert_same_bytes(got, generic_group_by(table, ["a", "b"], AGGS))

    @pytest.mark.parametrize("other", [
        np.array([0.5, 1.5, 0.5, 0.5]),
        np.array([True, False, True, True]),
        np.array(["x", "y", "x", "x"]),
    ])
    def test_non_integer_keys_fall_back(self, other):
        ints = np.array([2, 1, 2, 1], dtype=np.int32)
        assert groupby_mod._mixed_radix([ints, other]) is None
        table = Table({"a": ints, "b": other, "v": np.arange(4.0),
                       "i": np.arange(4, dtype=np.int64)})
        assert_same_bytes(group_by(table, ["a", "b"], AGGS),
                          generic_group_by(table, ["a", "b"], AGGS))


def _mask_columns(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "f": rng.normal(size=n),
        "i": rng.integers(-9, 9, n).astype(np.int16),
        "u": rng.integers(0, 2**64, n, dtype=np.uint64),
        "b": rng.random(n) < 0.5,
        "s": np.array([f"n{j % 7}" for j in range(n)]),
    }


@st.composite
def masks(draw, n):
    return draw(st.one_of(
        st.just(np.ones(n, dtype=bool)),
        st.just(np.zeros(n, dtype=bool)),
        hnp.arrays(np.bool_, n),
    ))


class TestBooleanMask:
    @given(st.integers(0, 200).flatmap(
        lambda n: st.tuples(st.just(n), masks(n))), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_column_indexing(self, case, seed):
        n, mask = case
        table = Table(_mask_columns(n, seed))
        got = table[mask]
        assert got.n_rows == int(mask.sum())
        for c in table.columns:
            want = table[c][mask]
            assert got[c].dtype == want.dtype
            assert got[c].tobytes() == want.tobytes()

    @given(st.integers(1, 200).flatmap(
        lambda n: st.tuples(st.just(n), masks(n))))
    @settings(max_examples=30, deadline=None)
    def test_mmap_backed_rcs_columns(self, tmp_path_factory, case):
        n, mask = case
        path = tmp_path_factory.mktemp("mask") / "raw.rcs"
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_RCS_COMPRESSION", "off")
            save_rcs(Table(_mask_columns(n, n)), path)
        table = open_rcs(path).read()
        # every column is a read-only view over the mapping
        assert not any(table[c].flags.owndata or table[c].flags.writeable
                       for c in table.columns)
        got = table[mask]
        for c in table.columns:
            want = table[c][mask]
            assert got[c].dtype == want.dtype
            assert got[c].tobytes() == want.tobytes()

    @pytest.mark.parametrize("length", [0, 9, 11])
    def test_wrong_length_raises(self, length):
        table = Table(_mask_columns(10, 0))
        with pytest.raises(IndexError):
            table[np.ones(length, dtype=bool)]
        with pytest.raises(ValueError, match=f"mask length {length} != row"):
            table.filter(np.ones(length, dtype=bool))
