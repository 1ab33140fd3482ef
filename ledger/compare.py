#!/usr/bin/env python3
"""Compare two sets of ledger runs: ``python3 ledger/compare.py A.json B.json``.

Each file holds the JSON lines ``ledger/run.py --out`` appended (several
runs of one commit).  ``A`` is the base, ``B`` the candidate.  One row per
(workload, end-to-end metric) gives both medians, the ratio ``B/A`` with
``A`` as its base, the metric's bound and one of

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (quartile
  distance over median) is wider than the bound, so neither can be said,
  unless every run of one side beats every run of the other.

Exit code 1 when any row is ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from ledger import catalog  # noqa: E402


def load(path: str | Path) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per run]}`` of the end-to-end runs."""
    out: dict[tuple[str, str], list[float]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            if run["trace"] != 0:
                continue
            for name, m in run["metrics"].items():
                out.setdefault((run["workload"], name), []).append(m["value"])
    return out


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[float, float, str]:
    """(worsening of B's median as a share of A's, widest spread, status)."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    worse = sign * (mb - ma) / ma
    wide = max(spread(a), spread(b))
    if wide <= bound:
        return worse, wide, "regressed" if worse > bound else "ok"
    if all(sign * y < sign * x for x in a for y in b):
        return worse, wide, "ok"
    if worse > bound and all(sign * y > sign * x for x in a for y in b):
        return worse, wide, "regressed"
    return worse, wide, "unresolved"


def compare(a_path: str | Path, b_path: str | Path) -> list[dict]:
    a_runs, b_runs = load(a_path), load(b_path)
    rows = []
    for workload, wl in catalog.WORKLOADS.items():
        alias = {"part1_per_s": wl.part1, "part2_per_s": wl.part2}
        for m in catalog.END_TO_END:
            a = a_runs.get((workload, m.name))
            b = b_runs.get((workload, m.name))
            if not a or not b:
                continue
            worse, wide, status = verdict(a, b, m.better, m.bound)
            rows.append({
                "workload": workload, "metric": m.name,
                "alias": alias.get(m.name, m.name), "unit": m.unit,
                "a": statistics.median(a), "b": statistics.median(b),
                "runs": (len(a), len(b)),
                "ratio": statistics.median(b) / statistics.median(a),
                "worse": worse, "spread": wide, "bound": m.bound,
                "status": status,
            })
    return rows


def render(rows: list[dict]) -> str:
    head = (f"{'workload/metric':<46} {'A (base)':>13} {'B':>13} "
            f"{'B/A':>7} {'bound':>6} {'spread':>7}  status")
    lines = [head, "-" * len(head)]
    for r in rows:
        name = f"{r['workload']}/{r['metric']}"
        if r["alias"] != r["metric"]:
            name += f" ({r['alias']})"
        lines.append(
            f"{name:<46} {r['a']:>13.6g} {r['b']:>13.6g} "
            f"{r['ratio']:>7.3f} {r['bound']:>6.2f} {r['spread']:>7.3f}  "
            f"{r['status']}  [{r['unit']}; runs {r['runs'][0]}/"
            f"{r['runs'][1]}]"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(*args)
    print(render(rows))
    return 1 if any(r["status"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
