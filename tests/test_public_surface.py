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

The same holds for parameters: every defaulted parameter of a public
function, method or ``__init__`` must be set by a call in that non-test
code — by keyword, positionally past its index, or through ``*``/``**``.
A method counts only when called through an attribute; a class's
``__init__`` is called by the class name (or by ``super().__init__`` in a
subclass).  Matching is again by bare name, so it under-reports, never
over-reports.  A default nothing sets becomes a constant, or gets an
entry in :data:`ALLOWED_DEFAULTS`.
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
    "PlantState.to_columns": "ROADMAP item 11 archives the plant series "
                             "through it",
}

#: ``qualname.param`` -> why a default no non-test caller sets stays
ALLOWED_DEFAULTS = {
    "Pipeline.stream_graph.edge_threshold_w": "kept for ROADMAP item 1(b)",
    "Pipeline.stream_graph.spectral": "kept for ROADMAP item 1(b)",
    "Executor.mp_context": "tests run fork and spawn in one process; "
                           "REPRO_MP_CONTEXT is the deployment control",
    "TwinData.sampler.loss_events": "ROADMAP items 2 and 7 replay the "
                                    "paper's loss episodes",
    "Pipeline.stream_graph.loss_events": "ROADMAP items 2 and 7 replay the "
                                         "paper's loss episodes",
    "ClusterTraceBuilder.build.track_alloc": "tests/workload/"
        "gen_cosim_golden.py pins the painted allocation map "
        "(cosim_arrays.json's track_alloc=1 keys)",
    "synthetic_catalog.config": "tests/workload/gen_cosim_golden.py pins "
        "schedules on a 180-node machine, a size the full-Summit default "
        "cannot reach at test scale",
    "TelemetrySampler.sample.gpu_temps": "tests/telemetry/test_telemetry.py "
        "and tests/integration/test_failure_injection.py need GPU core "
        "temperatures to see a temperature loss episode blank them",
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


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """``(param, positional index past the receiver, or None)`` per
    defaulted parameter of ``fn``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in fn.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def default_surface() -> dict[str, tuple[str, bool, str, int | None]]:
    """``qualname.param`` -> ``(bare name a caller spells, attribute-only,
    param, positional index)`` for every defaulted public parameter."""
    found = {}
    for module in MODULES:
        for node in ast.parse(module.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                for param, i in _defaulted(node, False):
                    found[f"{node.name}.{param}"] = (node.name, False, param, i)
            if not (isinstance(node, ast.ClassDef) and _public(node.name)):
                continue
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                if member.name == "__init__":
                    qual, bare, attr = node.name, node.name, False
                elif _public(member.name):
                    qual = f"{node.name}.{member.name}"
                    bare, attr = member.name, True
                else:
                    continue
                for param, i in _defaulted(member, True):
                    found[f"{qual}.{param}"] = (bare, attr, param, i)
    return found


class _Calls(ast.NodeVisitor):
    """Every call: ``(bare name, through an attribute, positional count,
    keyword names, passes * or **)``."""

    def __init__(self):
        self.calls = []
        self._bases: list[list[str]] = []

    def visit_ClassDef(self, node):
        self._bases.append([b.id for b in node.bases
                            if isinstance(b, ast.Name)])
        self.generic_visit(node)
        self._bases.pop()

    def visit_Call(self, node):
        fn = node.func
        if isinstance(fn, ast.Name):
            names = [(fn.id, False)]
        elif not isinstance(fn, ast.Attribute):
            names = []
        elif (fn.attr == "__init__" and isinstance(fn.value, ast.Call)
              and isinstance(fn.value.func, ast.Name)
              and fn.value.func.id == "super" and self._bases):
            names = [(base, False) for base in self._bases[-1]]
        else:
            names = [(fn.attr, True)]
        n_pos = sum(not isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords if k.arg}
        star = (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords))
        for name, through_attr in names:
            self.calls.append((name, through_attr, n_pos, keywords, star))
        self.generic_visit(node)


def unset_defaults() -> list[str]:
    """``qualname.param`` of every default no non-test call sets."""
    calls = _Calls()
    for top in CALLERS:
        for path in (ROOT / top).rglob("*.py"):
            if not path.name.startswith("test_"):
                calls.visit(ast.parse(path.read_text()))
    out = []
    for qual, (bare, attr, param, i) in default_surface().items():
        if not any(
            name == bare and (via or not attr)
            and (star or param in keywords or (i is not None and n_pos > i))
            for name, via, n_pos, keywords, star in calls.calls
        ):
            out.append(qual)
    return sorted(out)


def test_every_default_has_a_caller():
    extra = sorted(set(unset_defaults()) - set(ALLOWED_DEFAULTS))
    assert not extra, f"defaults only tests set: {extra}"
    assert len(ALLOWED_DEFAULTS) <= 8


def test_default_allow_list_is_not_stale():
    gone = sorted(set(ALLOWED_DEFAULTS) - set(default_surface()))
    assert not gone, f"allow-listed defaults that no longer exist: {gone}"
    now_set = sorted(set(ALLOWED_DEFAULTS) - set(unset_defaults()))
    assert not now_set, f"allow-listed defaults a caller now sets: {now_set}"
