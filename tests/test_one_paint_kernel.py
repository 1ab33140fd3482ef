"""Guard: one place turns an allocation into watts.

``workload/traces.py`` holds the only allocation → watts kernel under
``src/repro``: ``allocation_noise`` (the one ``0x7A5E`` stream),
``allocation_power`` (the one caller of ``NodePowerModel.node_dc_power``,
itself called only by the one chunk loop, ``allocation_chunks``), the
per-chip formula is ``machine/components.py``'s ``node_chip_power``
(called only by ``node_dc_power``), and DC → wall goes through
``NodePowerModel.wall_power`` (the one per-sample reader of
``node_max_power_w``; ``powercap`` budgets with the nominal scalar).  The
painter, the per-job series and the cluster superposition each used to
carry their own copy, and a fix made in one was a wrong answer in the
others.  A site that shows up here unannounced is a second route: call the
kernel instead.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _files_with(token: str) -> set[str]:
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if token in path.read_text()
    }


def test_allocation_to_watts_has_one_route():
    assert _files_with("node_dc_power(") == {
        "machine/node.py", "workload/traces.py",
    }
    assert (SRC / "workload/traces.py").read_text().count(
        "node_dc_power(") == 1
    assert _files_with("node_chip_power(") == {
        "machine/components.py", "machine/node.py",
    }
    assert (SRC / "machine/node.py").read_text().count(
        "node_chip_power(") == 2
    assert _files_with("allocation_power(") == {"workload/traces.py"}
    # the per-node sums come from the kernel, not from a (k, slots, t)
    # broadcast summed afterwards
    assert _files_with("broadcast_to(") == set()
    assert _files_with("0x7A5E") == {"workload/traces.py"}
    assert _files_with("node_max_power_w") == {
        "config.py", "machine/node.py", "workload/powercap.py",
    }
