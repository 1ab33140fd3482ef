"""Guard: one place sequences the kernels over an archive.

``plan.py`` (``QueryPlan``) is the only module under ``src/repro``
that calls ``coarsen_telemetry``, and the only one besides the streaming
aggregate (which collapses its own watermark-closed buffers, never an
archive) that calls ``cluster_power_series``.  A call site that shows up
here unannounced is a second read -> coarsen -> aggregate route: every fix
to the chain (shard-edge check, compaction tolerance, pushdown) would have
to be made twice again.  Run the plan instead —
``Pipeline.telemetry_series(ds, Query(...))`` in batch,
``plan_query(q, ds)`` anywhere else.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _call_sites(call: str) -> set[str]:
    """Modules outside ``core/`` with a ``call(`` that is not its ``def``."""
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if path.parent.name != "core"
        and f"{call}(" in path.read_text().replace(f"def {call}(", "")
    }


def test_kernels_are_sequenced_in_one_place():
    assert _call_sites("coarsen_telemetry") == {"plan.py"}
    assert _call_sites("cluster_power_series") == {
        "plan.py", "stream/operators.py",
    }
