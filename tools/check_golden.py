#!/usr/bin/env python
"""Regenerate the benchmark artifacts and diff them against the committed
goldens in ``benchmarks/output/``.

Two comparison modes:

* **exact** (``--exact``, the default at ``--scale 1.0``): byte-for-byte
  diff of every artifact — the strict check after an intentional
  full-scale regeneration.
* **scalar** (default below full scale): each artifact must exist, keep
  its title line, and its *key scalars* (the scale-robust numbers listed
  in :data:`SPECS` — PUE anchors, machine-sized row counts, config
  tables, validation biases) must match the golden within a per-scalar
  tolerance.  Job-population statistics are deliberately *not* compared:
  they move with ``REPRO_BENCH_SCALE``.

The scalar comparator is imported by ``tests/golden`` so the CI golden
check and the local tool cannot drift apart.  Benchmarks that fail their
own full-scale anchors at small scale still emit artifacts first, so the
regeneration run's exit code is informational only.

Usage::

    python tools/check_golden.py                 # full-scale, exact diff
    python tools/check_golden.py --scale 0.02    # quick, key scalars only
    python tools/check_golden.py --output DIR    # keep regenerated files
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "benchmarks" / "output"


@dataclass(frozen=True)
class Scalar:
    """One key number: first regex group compared as a float within
    ``tol`` (``rel``-ative or absolute)."""

    label: str
    pattern: str
    tol: float
    rel: bool = False


@dataclass(frozen=True)
class Exact:
    """First regex group (or whole match) compared for string equality."""

    label: str
    pattern: str


#: key scalars per artifact stem; files absent here get the structural
#: check only (exists, non-empty, identical title line)
SPECS: dict[str, list] = {
    "table1_system": [
        Exact("nodes", r"Nodes\s+\S[^\n]*?(?=\s*\n)"),
        Exact("peak power", r"Peak power\s+\S[^\n]*?(?=\s*\n)"),
        Exact("towers/chillers", r"Cooling towers / chillers\s+\d+ / \d+"),
    ],
    "table2_data": [
        Exact("telemetry rows", r"\(a\) per-node telemetry\s+\d+\s+\d+"),
        Exact("plant rows", r"\(b\) central energy plant\s+\d+\s+\d+"),
    ],
    "table3_classes": [
        Exact("class-2 bounds", r"(?m)^2\s+(\S+)\s+(\S+)"),
        Exact("class-5 bounds", r"(?m)^5\s+(\S+)\s+(\S+)"),
        Scalar("class-5 share %", r"(?m)^5\s+.*?([\d.]+)%\s*$", tol=10.0),
    ],
    "fig04_validation": [
        Scalar("summation bias %", r"\(([-\d.]+)% of metered power", tol=5.0),
    ],
    "fig05_year_trend": [
        Scalar("annual PUE", r"annual PUE ([\d.]+)", tol=0.08),
        Scalar("summer PUE", r"summer PUE ([\d.]+)", tol=0.08),
        Scalar("idle floor MW", r"idle floor ([\d.]+) MW", tol=0.10, rel=True),
        Scalar("peak MW", r"peak ([\d.]+) MW", tol=0.25, rel=True),
    ],
    "fig12_thermal_response": [
        Scalar("staging lag s", r"measured staging lag: (\d+) s", tol=45.0),
    ],
    "fig18_fingerprint": [
        Scalar("global MAE W/node", r"global (\d+) W/node", tol=0.30,
               rel=True),
    ],
    "ablation_coarsen": [
        Exact("10 s window count", r"(?m)^10 s\s+(\d+)"),
        Scalar("10 s PUE", r"(?m)^10 s\s.*?([\d.]+)\s*$", tol=0.06),
    ],
    "ablation_destaging": [
        Scalar("60 s PUE", r"(?m)^60 s\s+([\d.]+)", tol=0.02),
    ],
}


def _first_match(text: str, pattern: str) -> str | None:
    m = re.search(pattern, text)
    if m is None:
        return None
    return m.group(1) if m.groups() else m.group(0)


def compare_text(stem: str, fresh: str, golden: str) -> list[str]:
    """Scalar-mode comparison of one artifact; returns mismatch messages."""
    problems: list[str] = []
    fresh_title = fresh.splitlines()[0] if fresh else ""
    golden_title = golden.splitlines()[0] if golden else ""
    if fresh_title != golden_title:
        problems.append(
            f"title changed: {fresh_title!r} != {golden_title!r}"
        )
    for spec in SPECS.get(stem, []):
        got = _first_match(fresh, spec.pattern)
        want = _first_match(golden, spec.pattern)
        if want is None:
            problems.append(f"{spec.label}: pattern missing from golden")
            continue
        if got is None:
            problems.append(f"{spec.label}: pattern missing from output")
            continue
        if isinstance(spec, Exact):
            if got != want:
                problems.append(f"{spec.label}: {got!r} != {want!r}")
            continue
        g, w = float(got), float(want)
        bound = spec.tol * abs(w) if spec.rel else spec.tol
        if abs(g - w) > bound:
            kind = "rel" if spec.rel else "abs"
            problems.append(
                f"{spec.label}: {g} vs golden {w} "
                f"(|diff| {abs(g - w):.4g} > {kind} tol {spec.tol})"
            )
    return problems


def compare_dirs(fresh_dir: Path, golden_dir: Path = GOLDEN_DIR,
                 exact: bool = False) -> dict[str, list[str]]:
    """Compare every golden artifact against its regenerated counterpart.

    Returns ``{stem: [problem, ...]}`` for artifacts that disagree.
    """
    failures: dict[str, list[str]] = {}
    for golden_path in sorted(golden_dir.glob("*.txt")):
        stem = golden_path.stem
        fresh_path = fresh_dir / golden_path.name
        if not fresh_path.exists():
            failures[stem] = ["artifact was not regenerated"]
            continue
        fresh = fresh_path.read_text()
        golden = golden_path.read_text()
        if not fresh.strip():
            failures[stem] = ["regenerated artifact is empty"]
            continue
        if exact:
            if fresh != golden:
                failures[stem] = ["byte-level diff from committed golden"]
            continue
        problems = compare_text(stem, fresh, golden)
        if problems:
            failures[stem] = problems
    return failures


def regenerate(out_dir: Path, scale: float) -> int:
    """Run the benchmark suite with artifacts redirected to ``out_dir``.

    Returns pytest's exit code (non-zero is tolerated at small scale:
    full-scale anchors may trip, but artifacts are emitted first).
    """
    env = dict(os.environ)
    env["REPRO_BENCH_SCALE"] = str(scale)
    env["REPRO_BENCH_OUTPUT"] = str(out_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q",
         "-p", "no:cacheprovider"],
        cwd=REPO_ROOT,
        env=env,
    )
    return proc.returncode


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0,
                    help="REPRO_BENCH_SCALE for the regeneration run")
    ap.add_argument("--output", type=Path, default=None,
                    help="keep regenerated artifacts here (default: tmp)")
    ap.add_argument("--exact", action="store_true",
                    help="byte-level diff (default when --scale is 1.0)")
    ap.add_argument("--compare-only", type=Path, default=None, metavar="DIR",
                    help="skip regeneration; compare an existing directory")
    args = ap.parse_args(argv)

    exact = args.exact or args.scale >= 1.0
    if args.compare_only is not None:
        fresh_dir = args.compare_only
    else:
        fresh_dir = args.output or Path(tempfile.mkdtemp(prefix="golden-"))
        rc = regenerate(fresh_dir, args.scale)
        if rc != 0:
            print(f"note: benchmark run exited {rc} "
                  f"(tolerated; comparing emitted artifacts)")

    failures = compare_dirs(fresh_dir, exact=exact)
    n = len(list(GOLDEN_DIR.glob('*.txt')))
    if not failures:
        mode = "exact" if exact else "key-scalar"
        print(f"OK: {n} artifacts match the committed goldens ({mode} mode)")
        return 0
    for stem, problems in failures.items():
        for p in problems:
            print(f"MISMATCH {stem}: {p}")
    print(f"{len(failures)}/{n} artifacts disagree with benchmarks/output/")
    return 1


if __name__ == "__main__":
    sys.exit(main())
