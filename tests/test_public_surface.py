"""Guard: every public name under ``src/repro`` has a caller outside the
tests.

The public defs, classes, methods and properties of every module under
``src/repro`` are read with :mod:`ast`; the module list is the tree itself
(:data:`MODULES`), so a new module or package starts inside the guard.  A
name is used when an ``ast.Name`` or ``ast.Attribute`` node of that name
appears in non-test code (``src/``, ``benchmarks/``, ``examples/``,
``ledger/``, ``tools/``), or when ``ledger/layers.py`` — which patches entry
points by name — spells it as a string; a method or property is reached
only through an attribute, so for those a bare ``ast.Name`` does not count.
Imports, ``__all__`` and other strings do not count.  Matching is by bare
name, so a name shared with another API (``os.rename``) reads as used: the
guard under-reports, never over-reports.

A name no such node refers to is surface only a test reaches: delete it, or
give it an entry in :data:`ALLOWED` with the reason it stays.
"""

import ast
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: every module the guard reads; ``__init__.py`` files only re-export
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
CALLERS = ("src", "benchmarks", "examples", "ledger", "tools")
BY_NAME = ROOT / "ledger" / "layers.py"

#: qualified name -> why it stays with only test callers
ALLOWED = {
    "Table.owner": "the zero-copy ownership tests read which buffer a "
                   "column borrows",
    "TelemetryReplaySource.arrival_times": "the watermark tests read the "
                                           "replay's arrival model",
    "validate_spans": "the span-forest tests check captured in-memory "
                      "records; tools read files through load_trace",
    "export_datasets": "TestExportEquivalence's reference for "
                       "Pipeline.export",
    "welch_psd": "the reference for OnlineSpectral in "
                 "tests/stream/test_equivalence.py",
    "PlantState.to_columns": "ROADMAP item 11 archives the plant series "
                             "through it",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def surface() -> dict[str, str]:
    """Qualified public name -> the bare name a caller spells
    (``Class.member`` for a method or property)."""
    found = {}
    for module in MODULES:
        for node in ast.parse(module.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _public(node.name):
                continue
            found[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and _public(member.name)):
                        found[f"{node.name}.{member.name}"] = member.name
    return found


def referenced() -> tuple[set[str], set[str]]:
    """``(names, attributes)`` non-test code refers to: every bare name,
    and the subset spelled as an attribute (or a patched entry point)."""
    names, attrs = set(), set()
    for top in CALLERS:
        for path in (ROOT / top).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
    for node in ast.walk(ast.parse(BY_NAME.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    return names | attrs, attrs


def unused() -> list[str]:
    """Qualified public names nothing outside the tests refers to."""
    names, attrs = referenced()
    return sorted(q for q, name in surface().items()
                  if name not in (attrs if "." in q else names))


def test_every_public_name_has_a_caller_outside_the_tests():
    extra = sorted(set(unused()) - set(ALLOWED))
    assert not extra, f"public names only tests reach: {extra}"


def test_allow_list_is_not_stale():
    gone = sorted(set(ALLOWED) - set(surface()))
    assert not gone, f"allow-listed names that no longer exist: {gone}"
    now_used = sorted(set(ALLOWED) - set(unused()))
    assert not now_used, f"allow-listed names that now have a caller: {now_used}"


def test_scan_covers_every_module():
    on_disk = {
        os.path.relpath(os.path.join(folder, name), SRC)
        for folder, _, files in os.walk(SRC)
        for name in files
        if name.endswith(".py") and name != "__init__.py"
    }
    scanned = {os.path.relpath(module, SRC) for module in MODULES}
    assert scanned == on_disk
    assert {"config.py", "plan.py", "core/fingerprint.py",
            "workload/traces.py"} <= scanned
