"""Run-shape machinery shared by the four workloads.

A run is set-up (warm-up block included) followed by equal-work blocks.
Every block has two timed parts, each a fixed sequence of slots; a timing
metric is built from the fastest samples of every slot — noise on a
shared box only ever adds time, so the fastest samples estimate the quiet
host while a real slowdown still raises them.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: a run never does fewer timed blocks than this, however slow the host
MIN_BLOCKS = 3
#: whole-run limit enforced by the watchdog (the driver allows 180 s)
RUN_LIMIT_S = 150.0


def part_floor(blocks: list[list[float]]) -> float:
    """Quiet-host seconds of one block part.

    ``blocks[b][j]`` is the time slot ``j`` took in block ``b``; slot
    ``j`` does the same work in every block, so each slot is charged at
    its fastest sample and the part is their sum.  A slot only has to be
    lucky in one block, not all slots in the same one: on a box whose
    speed wanders for tens of seconds at a time this repeats several
    times closer than the fastest whole blocks do.
    """
    return sum(min(b[j] for b in blocks) for j in range(len(blocks[0])))


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q * len(ordered))))
    return ordered[rank - 1]


def part_stats(blocks: list[list[float]]) -> dict:
    """The gated floor with the ungated all-block statistics."""
    totals = [sum(b) for b in blocks]
    return {
        "floor_s": part_floor(blocks),
        "median_s": statistics.median(totals),
        "p90_s": nearest_rank(totals, 0.9),
        "blocks": len(blocks),
        "slots": len(blocks[0]),
    }


# ---------------- host calibration ----------------

_CAL_ARRAY = np.random.default_rng(0).random(120_000)


def _py_loop() -> None:
    acc = 0
    for i in range(60_000):
        acc += i * i % 7


def _np_kernel() -> None:
    np.sort(_CAL_ARRAY)


class Calibration:
    """Fixed kernels timed between blocks; they say whether the *host*
    was steady during a run, independent of the program under test."""

    def __init__(self):
        self.py_ms: list[float] = []
        self.np_ms: list[float] = []

    def sample(self) -> None:
        for fn, out in ((_py_loop, self.py_ms), (_np_kernel, self.np_ms)):
            t0 = time.perf_counter()
            fn()
            out.append((time.perf_counter() - t0) * 1e3)

    def summary(self) -> dict:
        out = {}
        for key, vals in (("py_loop", self.py_ms), ("np_kernel", self.np_ms)):
            out[f"host.{key}_best_ms"] = min(vals)
            out[f"host.{key}_median_ms"] = statistics.median(vals)
        return out

    def unsteady(self) -> bool:
        s = self.summary()
        return any(
            s[f"host.{k}_median_ms"] > 1.25 * s[f"host.{k}_best_ms"]
            for k in ("py_loop", "np_kernel")
        )


# ---------------- block loop ----------------


def run_blocks(block, first: int, max_blocks: int, seconds: float,
               cal: Calibration, dog: "Watchdog") -> list[tuple[list, list]]:
    """Run ``block(k)`` for ``k = first, first+1, ...`` until ``seconds``
    are used (at least :data:`MIN_BLOCKS`, and only ``k < max_blocks``).

    A block is not started when half its expected length would overshoot
    the budget, so a run ends within half a block of ``seconds``.
    """
    times: list[tuple[list, list]] = []
    start = time.perf_counter()
    last = 0.0
    while first + len(times) < max_blocks:
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_BLOCKS and elapsed + 0.5 * last > seconds:
            break
        dog.phase(f"block {len(times)}")
        gc.collect()
        cal.sample()
        t0 = time.perf_counter()
        times.append(block(first + len(times)))
        last = time.perf_counter() - t0
    return times


# ---------------- watchdog ----------------


class Watchdog:
    """Aborts the process when a run exceeds its limit.

    A hung socket or child must not hang the driver: on expiry the
    watchdog names the phase that was running, kills registered children,
    removes the work directory, and exits non-zero.
    """

    def __init__(self, workload: str, limit_s: float = RUN_LIMIT_S):
        self.workload = workload
        self.limit_s = limit_s
        self._phase = "start"
        self._children: list[subprocess.Popen] = []
        self._workdirs: list[Path] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)

    def __enter__(self) -> "Watchdog":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()

    def phase(self, name: str) -> None:
        self._phase = name

    def watch_child(self, proc: subprocess.Popen) -> None:
        self._children.append(proc)

    def watch_dir(self, path: Path) -> None:
        self._workdirs.append(path)

    def _watch(self) -> None:
        if self._done.wait(self.limit_s):
            return
        print(
            f"ledger: watchdog: workload {self.workload!r} stuck in phase "
            f"{self._phase!r} after {self.limit_s:.0f} s; aborting",
            file=sys.stderr, flush=True,
        )
        for proc in self._children:
            if proc.poll() is None:
                proc.kill()
                try:
                    proc.wait(5)
                except subprocess.TimeoutExpired:
                    pass
        for path in self._workdirs:
            shutil.rmtree(path, ignore_errors=True)
        os._exit(3)


# ---------------- scratch space, memory, provenance ----------------


@contextmanager
def workdir(dog: Watchdog):
    """A scratch directory inside the checkout, removed on the way out."""
    base = ROOT / ".ledger_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    dog.watch_dir(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run is using it


def peak_rss_mb(child_kb: int = 0) -> float:
    """High-water RSS of this process plus ``child_kb`` (the server
    child's ``VmHWM``, read by the workload before it stops the child)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return (own + child_kb) / 1024.0


def child_hwm_kb(pid: int) -> int:
    """``VmHWM`` of a live child in KiB (0 when /proc cannot say)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int, seconds: float, quick: bool) -> dict:
    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
