#!/usr/bin/env python3
"""Run the benchmark ledger.

Contract mode (what the driver calls)::

    python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1

runs one pass of one workload and prints, as the last line of stdout, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` —
every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.

Full mode (no ``--trace``) runs both passes of one or all workloads, each
as a child process in contract mode so the numbers are taken exactly as
the driver takes them.  ``--out FILE`` appends one JSON line per run; two
such files are what ``ledger/compare.py`` compares.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"ledger: no src/repro beside {Path(__file__).parent}; "
             "the benchmark runs from a checkout of the repository")
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.obs import trace  # noqa: E402

from ledger import catalog, harness, layers  # noqa: E402
from ledger.workloads.archive_cycle import ArchiveCycle  # noqa: E402
from ledger.workloads.cosim_backlog import CosimBacklog  # noqa: E402
from ledger.workloads.serve_mix import ServeMix  # noqa: E402
from ledger.workloads.stream_replay import StreamReplay  # noqa: E402

WORKLOADS = {
    cls.name: cls
    for cls in (ArchiveCycle, ServeMix, StreamReplay, CosimBacklog)
}
assert list(WORKLOADS) == list(catalog.WORKLOADS)

#: block pairs (one untraced, one traced) of the traced pass
TRACED_PAIRS = 3
#: a run sets up at least twice, and again (up to 4 times) until 3 s have
#: gone into it; each set-up step is charged at its fastest
SETUP_REPEATS = (2, 4)
SETUP_BUDGET_S = 3.0
QUICK_SECONDS = 1.5


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 quick: bool = False) -> dict:
    """One pass of one workload, in this process."""
    cls = WORKLOADS[name]
    with harness.Watchdog(name) as dog, harness.workdir(dog) as work:
        wl = cls(seed, quick, work, dog)
        try:
            _set_up(wl, (1, 1) if quick else SETUP_REPEATS)
            if traced:
                metrics, detail = _traced_pass(wl, work, dog)
            else:
                metrics, detail = _timed_pass(wl, seconds, dog)
        finally:
            dog.phase("close")
            wl.close()
        if not traced:
            metrics["peak_rss_mb"] = harness.peak_rss_mb(wl.child_kb)
    detail.update(wl.detail())
    spec = catalog.PER_LAYER if traced else catalog.END_TO_END
    return {
        "workload": name,
        "trace": int(traced),
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "failures": wl.failures,
        "metrics": {
            m.name: {"value": float(metrics.get(m.name, 0.0)),
                     "unit": m.unit}
            for m in spec
        },
        "detail": detail,
        "provenance": harness.provenance(seed, seconds, quick),
    }


def _set_up(wl, repeats: tuple[int, int]) -> None:
    """Build, warm up, tear down, and again: ``wl.steps`` ends up with
    one sample per step and repeat.  The warm-up block is set-up too (it
    is what makes the first timed block look like the last); its slots
    are kept one by one.  Cheap set-ups repeat more often, so that a
    half-second set-up is not judged from two samples."""
    least, most = repeats
    start = time.perf_counter()
    r = 0
    while r < least or (r < most
                        and time.perf_counter() - start < SETUP_BUDGET_S):
        if r:
            wl.close()
        wl.build(r)
        wl.dog.phase("setup: warm-up")
        part1, part2 = wl.block(r)
        wl.warmups.append(part1 + part2)
        r += 1


def _setup_steps(wl) -> dict[str, float]:
    """Every set-up step at its fastest; the warm-up block slot by slot."""
    steps = {name: min(samples) for name, samples in wl.steps.items()}
    steps["warm-up"] = sum(min(slot) for slot in zip(*wl.warmups))
    return steps


def _timed_pass(wl, seconds: float, dog) -> tuple[dict, dict]:
    cal = harness.Calibration()
    blocks = harness.run_blocks(
        wl.block, first=len(wl.warmups), max_blocks=wl.max_blocks,
        seconds=seconds, cal=cal, dog=dog,
    )
    steps = _setup_steps(wl)
    metrics = {"setup_s": sum(steps.values())}
    detail = {"host": cal.summary(), "unsteady": cal.unsteady(),
              "setup_steps": steps}
    for i, key in enumerate(("part1_per_s", "part2_per_s")):
        stats = harness.part_stats([b[i] for b in blocks])
        metrics[key] = wl.units[i] / stats["floor_s"]
        detail[key] = {
            "blocks": stats["blocks"],
            "slots": stats["slots"],
            "median": wl.units[i] / stats["median_s"],
            "p90": wl.units[i] / stats["p90_s"],
            # every slot sample, so an estimator can be re-examined
            "samples_us": [[round(t * 1e6) for t in b[i]] for b in blocks],
        }
    return metrics, detail


def _traced_pass(wl, work: Path, dog) -> tuple[dict, dict]:
    """Untraced and traced blocks in turn, then the workload's probes.

    The traced blocks give the per-layer numbers; the fastest of each
    kind give the tracing overhead.  End-to-end numbers are never taken
    from this pass.
    """
    cal = harness.Calibration()
    trace_file = work / "spans.jsonl"

    def record():
        return layers.Recording(trace_file)

    def block_s(k: int) -> float:
        return sum(sum(slots) for slots in wl.block(k))

    plain, traced = [], []
    k = len(wl.warmups)
    for pair in range(TRACED_PAIRS):
        for out in (plain, traced):
            dog.phase(f"traced pass: pair {pair}")
            gc.collect()
            cal.sample()
            if out is plain:
                out.append(block_s(k))
            else:
                with record(), trace.span(layers.BLOCK):
                    out.append(block_s(k))
            k += 1
    dog.phase("traced pass: probes")
    wl.probe(record)
    spans = layers.Spans(trace_file)

    metrics = {"datasets.twin_s": wl.step_s("twin"),
               "workload.jobs.catalog_s": wl.step_s("catalog")}
    metrics.update(wl.layer_metrics(spans))
    metrics.update(cal.summary())
    metrics["obs.trace_overhead_share"] = min(traced) / min(plain) - 1.0
    seconds = spans.layer_seconds()
    # the ledger's own checks and clean-up are not part of the path
    own = sum(v for name, v in seconds.items()
              if name.startswith("ledger:") and name != layers.BLOCK)
    path_s = sum(seconds.values()) - own
    metrics.setdefault(
        "ledger.unattributed_share",
        seconds.get(layers.BLOCK, 0.0) / path_s if path_s > 0 else 0.0,
    )
    detail = {
        "unsteady": cal.unsteady(),
        "wall_share": {
            name: v / path_s for name, v in sorted(seconds.items())
            if not name.startswith("ledger:") and path_s > 0
        },
    }
    return metrics, detail


# ---------------- output ----------------


def _report(result: dict) -> str:
    name = result["workload"]
    wl = catalog.WORKLOADS[name]
    alias = {"part1_per_s": wl.part1, "part2_per_s": wl.part2}
    prov = result["provenance"]
    lines = [
        f"== {name}  trace={result['trace']}  seed={prov['seed']}  "
        f"git={prov['git_sha'][:12]}  nproc={prov['nproc']}  "
        f"cpu={prov['cpu']}  python={prov['python']}  "
        f"numpy={prov['numpy']}"
        + ("  UNSTEADY HOST" if result["detail"].get("unsteady") else "")
    ]
    for key, m in result["metrics"].items():
        label = f"{key} ({alias[key]})" if key in alias else key
        line = f"  {label:<52} {m['value']:>16.6g} {m['unit']}"
        extra = result["detail"].get(key)
        if isinstance(extra, dict):
            line += (f"   [fastest sample of each of {extra['slots']} slots"
                     f" over {extra['blocks']} blocks; all-block median"
                     f" {extra['median']:.6g}, p90 {extra['p90']:.6g}]")
        lines.append(line)
    for step, seconds in result["detail"].get("setup_steps", {}).items():
        lines.append(f"  set-up step {step:<40} {seconds:>16.6g} s")
    for layer, share in result["detail"].get("wall_share", {}).items():
        lines.append(f"  wall share  {layer:<40} {share:>16.4f}")
    lines.append(
        f"  operations: {result['attempted']} attempted, "
        f"{result['failed']} failed"
    )
    lines += [f"  FAILED: {what}" for what in result["failures"]]
    return "\n".join(lines)


def _contract_line(result: dict) -> str:
    return json.dumps({
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    })


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"timed phase of a run (default "
                         f"{catalog.RUN_SECONDS}; {QUICK_SECONDS} with "
                         f"--quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end pass, 1: traced per-layer pass; "
                         "omit to run both")
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, one set-up (tests); numbers are "
                         "not comparable")
    ap.add_argument("--out", type=Path, default=None,
                    help="append one JSON line per run to this file")
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else catalog.RUN_SECONDS

    if args.workload is not None and args.trace is not None:
        result = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.quick)
        print(_report(result), flush=True)
        if args.out is not None:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(result) + "\n")
        print(_contract_line(result), flush=True)
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = [args.trace] if args.trace is not None else [0, 1]
    all_correct = True
    for name in names:
        for trace in passes:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            if args.quick:
                cmd.append("--quick")
            if args.out is not None:
                cmd += ["--out", str(args.out)]
            all_correct &= _run_child(cmd, f"{name} trace={trace}")
    return 0 if all_correct else 1


def _run_child(cmd: list[str], what: str) -> bool:
    """Run one contract-mode child, echo its report, and say whether its
    result line reads ``correct``."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=harness.RUN_LIMIT_S + 20)
    except subprocess.TimeoutExpired:
        print(f"ledger: {what} timed out", file=sys.stderr)
        return False
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0 or not lines:
        print(f"ledger: {what} exited with {done.returncode}",
              file=sys.stderr)
        return False
    return bool(json.loads(lines[-1])["correct"])


if __name__ == "__main__":
    sys.exit(main())
