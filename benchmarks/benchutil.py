"""Helpers shared by benchmark modules (importable, unlike conftest)."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.config import SUMMIT

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
#: where emit() persists rendered artifacts; ``REPRO_BENCH_OUTPUT``
#: redirects it so scaled-down runs (golden-regression tests, CI smoke)
#: never clobber the committed full-scale goldens
OUTPUT_DIR = Path(
    os.environ.get("REPRO_BENCH_OUTPUT") or Path(__file__).parent / "output"
)

#: day-of-year offset for the paper's summer window (July 24)
SUMMER_START_S = 205 * 86_400.0


def emit(name: str, text: str) -> None:
    """Print a rendered figure/table and persist it to benchmarks/output/."""
    print("\n" + text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


def full_scale_ratio(twin) -> float:
    """Power multiplier that maps a scaled twin onto full-Summit megawatts."""
    return SUMMIT.n_nodes / twin.config.n_nodes


def to_mw_equiv(power_w: np.ndarray, twin) -> np.ndarray:
    """Express twin power as full-scale-equivalent megawatts."""
    return np.asarray(power_w) * full_scale_ratio(twin) / 1e6


#: statistical anchors are only asserted when the run is near full scale;
#: quick runs (REPRO_BENCH_SCALE < 0.5) still execute and print everything.
FULL_STATS = SCALE >= 0.5

_soft_failures: list[str] = []


def anchor(condition: bool, label: str) -> None:
    """Assert a paper anchor at full scale; warn (don't fail) when the run
    is statistically starved by REPRO_BENCH_SCALE."""
    if condition:
        return
    if FULL_STATS:
        raise AssertionError(f"paper anchor violated: {label}")
    _soft_failures.append(label)
    print(f"[scale {SCALE}] anchor skipped (too few samples): {label}")


#: tracing-disabled overhead budget shared by the instrumented benches:
#: the fraction of a hot phase's wall clock the no-op ``trace.span()``
#: fast path may cost (asserted hard at every scale — the per-call cost
#: does not shrink with REPRO_BENCH_SCALE)
TRACE_OVERHEAD_BUDGET = 0.01


def disabled_span_cost(n: int = 200_000) -> float:
    """Measured per-call seconds of the tracing-disabled ``span()`` fast
    path (one branch and a shared no-op object)."""
    import time

    from repro.obs import trace

    assert not trace.is_enabled(), "overhead probe needs tracing off"
    t0 = time.perf_counter()
    for _ in range(n):
        trace.span("bench.overhead")
    return (time.perf_counter() - t0) / n


def trace_overhead_pct(span_calls: int, hot_wall_s: float) -> float:
    """The tracing-disabled overhead over a measured hot phase, in
    percent: (no-op span calls taken) x (measured per-call cost) /
    (phase wall clock)."""
    if hot_wall_s <= 0.0:
        return 0.0
    return span_calls * disabled_span_cost() / hot_wall_s * 100.0
