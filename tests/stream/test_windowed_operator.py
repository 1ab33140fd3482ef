"""Properties of the one watermark buffer under both windowed operators.

Random small tables over a few nodes — integral and quarter-second stamps
(the quarter ones reach ``window_index``'s float branch, with stamps on
the 10 s window edges), NaN values sprinkled in — are cut into random batches
that straddle windows, delivered out of order within a random skew under a
random lateness bound, optionally through a ``state_dict`` -> fresh
operator -> ``load_state`` round trip.  The reference is a plain model of
the contract: a row is late iff its window lies below the bound the
*earlier* batches ratcheted; everything else is one ``coarsen_telemetry``
(then ``cluster_power_series``) call over the surviving rows in arrival
order, compared bit for bit.
"""

import math
import pickle

import numpy as np
from hypothesis import given, strategies as st

from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.frame.table import Table, concat
from repro.frame.window import window_index
from repro.stream import (
    RecordBatch,
    StreamingClusterAggregate,
    StreamingCoarsen,
)

#: the coarsen window and grouping every windowed operator uses
WIDTH = 10.0
BY = ("node",)


@st.composite
def scenarios(draw, nan=True):
    n = draw(st.integers(1, 60))
    # quarter-second stamps over 16 windows, exact window edges included
    event = np.array(draw(st.lists(st.integers(0, 640), min_size=n,
                                   max_size=n)), dtype=np.float64) * 0.25
    if draw(st.booleans()):
        event = np.floor(event)  # all integral: window_index's int branch
    value = np.array(draw(st.lists(
        st.floats(-1e3, 1e3) | (st.just(math.nan) if nan else st.nothing()),
        min_size=n, max_size=n)))
    skew = draw(st.sampled_from([0.0, 8.0, 32.0]))
    delay = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                   max_size=n))) * skew
    order = np.argsort(event + delay, kind="stable")
    n_nodes = draw(st.integers(1, 4))
    table = Table({
        "timestamp": event,
        "node": np.array(draw(st.lists(st.integers(0, n_nodes - 1),
                                       min_size=n, max_size=n))),
        "v": value,
    }).take(order)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = list(zip([0, *cuts], [*cuts, n]))
    return {
        "table": table,
        "bounds": bounds,  # 1 row ... the whole table per batch
        "lateness_s": draw(st.sampled_from([0.0, 6.0, 12.0, 32.0])),
        "restore_at": draw(st.none() | st.integers(0, len(bounds) - 1)),
    }


def replay(make_op, table, bounds, restore_at):
    """Feed the batches (checkpointing into a fresh operator before batch
    ``restore_at``); return the operator and every emitted table."""
    op = make_op()
    out = []
    closed_below = -math.inf
    for i, (lo, hi) in enumerate(bounds):
        if i == restore_at:
            state = pickle.loads(pickle.dumps(op.state_dict()))
            op = make_op()
            op.load_state(state)
        out += op.process(RecordBatch(table[lo:hi], arrival_time=float(i)))
        assert op._closed_below >= closed_below
        closed_below = op._closed_below
    out += op.flush()
    assert not op._rows and op.flush() == []
    return op, [b.table for b in out]


def model(table, bounds, lateness_s, dropped):
    """``(late, kept)`` row masks by the contract: ``dropped`` rows never
    count as late, but everything that arrived advances the watermark."""
    win = window_index(table["timestamp"], WIDTH)
    late = np.zeros(table.n_rows, dtype=bool)
    closed_below = -math.inf
    max_event = -math.inf
    for lo, hi in bounds:
        late[lo:hi] = ~dropped[lo:hi] & (win[lo:hi] < closed_below)
        max_event = max(max_event, float(table["timestamp"][lo:hi].max()))
        closed_below = max(closed_below, int(window_index(
            np.array([max_event - lateness_s]), WIDTH)[0]))
    return late, ~late & ~dropped


def assert_bitwise_equal(a: Table, b: Table) -> None:
    assert a.columns == b.columns
    for c in a.columns:
        assert a[c].dtype == b[c].dtype, c
        assert a[c].tobytes() == b[c].tobytes(), c


@given(scenarios())
def test_coarsen_then_aggregate_equal_the_batch_kernels(s):
    table, bounds = s["table"], s["bounds"]
    op, emitted = replay(
        lambda: StreamingCoarsen(["v"], lateness_s=s["lateness_s"]),
        table, bounds, s["restore_at"])

    nan = ~np.isfinite(table["v"])
    late, kept = model(table, bounds, s["lateness_s"], dropped=nan)
    assert op.nan_rows == int(nan.sum())
    assert op.late_rows == int(late.sum())
    in_windows = sum(int(t["count"].sum()) for t in emitted)
    assert in_windows + op.late_rows + op.nan_rows == table.n_rows

    if not kept.any():
        assert emitted == []
        return
    key = [*BY, "timestamp"]
    streamed = concat(emitted)
    # no (group, window) is emitted twice
    seen = set(zip(*(streamed[k].tolist() for k in key)))
    assert len(seen) == streamed.n_rows
    reference = coarsen_telemetry(table.filter(kept), ["v"])
    assert_bitwise_equal(streamed.sort(key), reference.sort(key))

    # windows leave the coarsen in ascending order, so nothing downstream
    # is late and the collapse equals the batch one over the same rows
    agg, series = replay(
        lambda: StreamingClusterAggregate(value="v"),
        streamed, _row_bounds(emitted), None)
    assert agg.late_rows == 0
    assert_bitwise_equal(concat(series),
                         cluster_power_series(streamed, value="v"))


def _row_bounds(tables):
    ends = np.cumsum([t.n_rows for t in tables]).tolist()
    return list(zip([0, *ends[:-1]], ends))


@given(scenarios(nan=False))
def test_aggregate_counts_what_arrives_behind_a_closed_window(s):
    """Fed out-of-order window starts directly, the aggregate drops and
    counts exactly the rows behind its zero-lateness bound."""
    bounds = s["bounds"]
    t = s["table"]
    start = window_index(t["timestamp"], WIDTH).astype(np.float64) * WIDTH
    coarse = Table({"timestamp": start, "v_mean": t["v"],
                    "v_max": t["v"] + 1.0, "node": t["node"]})
    op, emitted = replay(
        lambda: StreamingClusterAggregate(value="v"),
        coarse, bounds, s["restore_at"])

    late, kept = model(coarse, bounds, 0.0,
                       dropped=np.zeros(coarse.n_rows, dtype=bool))
    assert op.late_rows == int(late.sum())
    streamed = concat(emitted)
    assert int(streamed["count_inp"].sum()) + op.late_rows == coarse.n_rows
    assert len(set(streamed["timestamp"].tolist())) == streamed.n_rows
    assert_bitwise_equal(
        streamed.sort("timestamp"),
        cluster_power_series(coarse.filter(kept), value="v"))


def test_a_chunk_straddling_several_windows_and_the_bound():
    """Skew 80 s over 10 s windows: an arrival chunk spans three or more
    windows with the watermark's bound inside them, so the cut splits it
    and buffers the open part alone — which then goes through a
    ``state_dict`` round trip.  Emission still equals the batch kernels
    over the rows the model keeps."""
    lateness_s, n = 30.0, 160
    rng = np.random.default_rng(29)
    event = np.sort(rng.integers(0, 160, n)) * 2.5
    arrival = event + rng.uniform(0.0, 1.0, n) * 80.0
    table = Table({
        "timestamp": event,
        "node": rng.integers(0, 3, n),
        "v": rng.normal(0.0, 1e3, n),
    }).take(np.argsort(arrival, kind="stable"))
    bounds = [(lo, min(lo + 16, n)) for lo in range(0, n, 16)]
    late, kept = model(table, bounds, lateness_s,
                       dropped=np.zeros(n, dtype=bool))

    win = window_index(table["timestamp"], WIDTH)
    straddled = []
    max_event = -math.inf
    for i, (lo, hi) in enumerate(bounds):
        max_event = max(max_event, float(table["timestamp"][lo:hi].max()))
        bound = int(window_index(np.array([max_event - lateness_s]),
                                 WIDTH)[0])
        w = win[lo:hi][kept[lo:hi]]
        if len(w) and w.min() < bound <= w.max() and w.max() - w.min() >= 2:
            straddled.append(i)
    assert straddled, "the scenario must split a chunk of 3+ windows"

    op, emitted = replay(
        lambda: StreamingCoarsen(["v"], lateness_s=lateness_s),
        table, bounds, straddled[0] + 1)
    assert op.late_rows == int(late.sum())
    key = [*BY, "timestamp"]
    streamed = concat(emitted)
    assert_bitwise_equal(
        streamed.sort(key),
        coarsen_telemetry(table.filter(kept), ["v"]).sort(key))
    agg, series = replay(
        lambda: StreamingClusterAggregate(value="v"),
        streamed, _row_bounds(emitted), len(emitted) // 2)
    assert agg.late_rows == 0
    assert_bitwise_equal(concat(series),
                         cluster_power_series(streamed, value="v"))
