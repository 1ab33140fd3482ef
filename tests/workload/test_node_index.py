"""``ScheduleResult.node_index``: the view route equals the sort route.

A table already in (allocation, node) order — every ``Scheduler.run``
output — is indexed without a sort: ``nodes`` is a read-only view of the
``node`` column.  Any other order takes the stable sort.  Both must give
the same ``(ids, bounds, nodes)`` for the same rows.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frame.table import Table
from repro.workload.scheduler import ScheduleResult

#: one job: (allocation id, its nodes); ids repeat across jobs, a job may
#: hold no node, and two jobs sharing an id may share a node
jobs = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.lists(st.integers(0, 40), max_size=6, unique=True),
    ),
    max_size=10,
)


def _result(ids: np.ndarray, nodes: np.ndarray) -> ScheduleResult:
    n = len(ids)
    allocations = Table({"allocation_id": np.unique(ids)})
    node_allocations = Table(
        {
            "allocation_id": ids,
            "node": nodes,
            "begin_time": np.zeros(n),
            "end_time": np.ones(n),
        }
    )
    return ScheduleResult(allocations, node_allocations,
                          np.empty(0, dtype=np.int64))


def _rows(spec) -> tuple[np.ndarray, np.ndarray]:
    ids = [aid for aid, nodes in spec for _ in nodes]
    nodes = [n for _, ns in spec for n in ns]
    return np.array(ids, dtype=np.int64), np.array(nodes, dtype=np.int64)


def _is_ordered(ids: np.ndarray, nodes: np.ndarray) -> bool:
    order = np.lexsort((nodes, ids))
    return bool(np.array_equal(ids[order], ids)
                and np.array_equal(nodes[order], nodes))


def _assert_read_only(res: ScheduleResult, ids: np.ndarray) -> None:
    for aid in [*np.unique(ids).tolist(), 0, 99]:
        assert not res.nodes_of(aid).flags.writeable


@given(jobs, st.randoms(use_true_random=False))
@example([], None)  # empty table
@example([(1, []), (2, [5]), (3, [])], None)  # zero-node jobs, one-row group
@example([(2, [3, 1]), (1, [4]), (2, [1, 7])], None)  # repeated ids
@settings(max_examples=150, deadline=None)
def test_view_route_equals_sort_route(spec, rnd):
    ids, nodes = _rows(spec)
    order = np.lexsort((nodes, ids))
    ordered = _result(ids[order], nodes[order])
    perm = np.arange(len(ids))
    if rnd is not None:
        rnd.shuffle(perm)
    shuffled = _result(ids[perm], nodes[perm])

    view_idx = ordered.node_index
    sort_idx = shuffled.node_index
    for a, b in zip(view_idx, sort_idx):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)

    ordered_nodes = ordered.node_allocations["node"]
    assert np.shares_memory(view_idx[2], ordered_nodes) or not len(ids)
    if not _is_ordered(ids[perm], nodes[perm]):
        shuffled_nodes = shuffled.node_allocations["node"]
        assert not np.shares_memory(sort_idx[2], shuffled_nodes)
    # the view is read-only; the column it views is not
    assert not view_idx[2].flags.writeable
    assert ordered_nodes.flags.writeable or not len(ids)

    _assert_read_only(ordered, ids)
    _assert_read_only(shuffled, ids)
    for aid in np.unique(ids).tolist():
        want = np.sort(nodes[ids == aid])
        assert np.array_equal(ordered.nodes_of(aid), want)
        assert np.array_equal(shuffled.nodes_of(aid), want)
