"""Guard: the packages over the archive import in one direction.

``repro.plan`` (the query, its plan and the content keys) sits below
``repro.pipeline``, ``repro.serve`` and ``repro.stream``; ``repro.stream``
sits beside it.  Each package is imported alone in a fresh interpreter and
the ``repro`` packages it pulled in are checked, so a function-level import
cannot hide a cycle: there are none left to hide one.

scipy is imported inside the functions that call it (the KDE, the
failure statistics, the thermal lag and the XID temperature draw), so no
package import pays for it: the service, the query client and the
pipeline never call it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.serve

SRC = Path(__file__).resolve().parents[1] / "src"

LAYERS = ("plan", "pipeline", "serve", "stream", "datasets")

PROBE = """
import json, sys
import repro.{name}
print(json.dumps(sorted({{m.split(".")[1] for m in sys.modules
                         if m.startswith("repro.")}})))
"""


def pulled_in(name: str) -> set[str]:
    """The ``repro`` packages (of :data:`LAYERS`) importing ``repro.name``
    loads, ``name`` itself excluded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(name=name)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out)) & set(LAYERS) - {name}


@pytest.mark.parametrize("name, pulls, never", [
    ("plan", set(), {"pipeline", "serve", "stream", "datasets"}),
    ("serve", {"plan"}, {"pipeline", "stream"}),
    ("stream", set(), {"plan", "pipeline", "serve"}),
    ("pipeline", {"plan"}, {"serve"}),
], ids=["plan", "serve", "stream", "pipeline"])
def test_package_pulls_in_only_lower_layers(name, pulls, never):
    got = pulled_in(name)
    assert pulls <= got, got
    assert not got & never, got


def test_serve_borrows_only_what_the_ledger_imports():
    """``repro.serve`` re-exports exactly the two plan names
    ``ledger/workloads/serve_mix.py`` imports from it.  ROADMAP item 1(b)
    re-points the ledger at ``repro.plan``; that change deletes the
    re-export and this test."""
    borrowed = {
        name for name in repro.serve.__all__
        if not getattr(repro.serve, name).__module__.startswith("repro.serve")
    }
    assert borrowed == {"Query", "plan_query"}


SCIPY_PROBE = """
import sys
import repro.{name}
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("name", [
    "plan", "serve", "stream", "pipeline", "core", "datasets", "__main__",
])
def test_package_import_loads_no_scipy(name):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE.format(name=name)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]", out
