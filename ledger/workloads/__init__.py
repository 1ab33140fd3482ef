"""One module per workload; :data:`ledger.run.WORKLOADS` is the registry."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Workload:
    """What the runner needs from a workload.

    ``build(r)`` makes the seeded inputs and starts what must be running,
    timing each step with :meth:`step`; the runner builds more than once
    (``close`` in between) and charges each step at its fastest, so
    ``build`` must work again after ``close``.  ``block(k)`` runs
    equal-work block ``k`` and returns the seconds of the *slots* of its
    two timed parts: slot ``j`` of a part does the same work in every
    block.  Reference checks run inside the block but outside the slots,
    and are counted as operations.  ``units`` are the work units of the
    two parts.  ``probe`` runs traced-pass-only micro-measurements and
    ``layer_metrics`` turns the recorded spans into per-layer values.
    """

    name = ""
    max_blocks = 1_000_000

    def __init__(self, seed: int, quick: bool, work: Path, dog):
        self.seed = seed
        self.quick = quick
        self.work = work
        self.dog = dog
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: VmHWM of a server child, read before it is stopped
        self.child_kb = 0
        #: seconds of each named set-up step, one entry per build
        self.steps: dict[str, list[float]] = {}
        #: slot seconds of each build's warm-up block
        self.warmups: list[list[float]] = []
        self.units: tuple[float, float] = (1.0, 1.0)
        self._op_lock = threading.Lock()  # serve_mix counts from threads

    def op(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed one is kept by name."""
        with self._op_lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok

    @contextmanager
    def step(self, name: str):
        """Time one named set-up step."""
        self.dog.phase(f"setup: {name}")
        t0 = time.perf_counter()
        yield
        self.steps.setdefault(name, []).append(time.perf_counter() - t0)

    def step_s(self, name: str) -> float:
        """A set-up step at its fastest (0 when this workload has none)."""
        return min(self.steps.get(name, [0.0]))

    def build(self, r: int) -> None:
        raise NotImplementedError

    def block(self, k: int) -> tuple[list[float], list[float]]:
        raise NotImplementedError

    def probe(self, record) -> None:
        """Traced-pass micro-measurements, run with tracing off;
        ``with record():`` turns the layer recording on around a piece."""

    def layer_metrics(self, spans) -> dict[str, float]:
        return {}

    def detail(self) -> dict:
        """Extra facts for the run's provenance block."""
        return {}

    def close(self) -> None:
        """Stop children and release sockets; safe to call twice, and
        ``build`` works again afterwards."""


def twin_telemetry(wl: Workload, n_nodes: int, horizon_s: float,
                   per_gpu: bool):
    """The seeded twin and its 1 Hz telemetry table over ``horizon_s``
    (set-up step ``twin``)."""
    from repro.datasets import SimulationSpec, simulate_twin

    with wl.step("twin"):
        twin = simulate_twin(SimulationSpec(
            n_nodes=n_nodes, n_jobs=4 * n_nodes, horizon_s=horizon_s,
            seed=wl.seed,
        ))
        arrays = twin.builder.build(0.0, horizon_s, 1.0, per_gpu=per_gpu)
        telemetry = twin.sampler().sample(arrays)
    return twin, telemetry


def compact_pairs(ds, n_nodes: int, shard_s: float) -> dict:
    """Compact ``ds`` into shards two partitions wide.

    The explicit row target (just under two full partitions) makes the
    compacted layout the same for every seed; the default target, the
    largest shard, depends on where the time-stamp jitter fell.
    """
    return ds.compact(target_rows=int(2 * n_nodes * shard_s * 0.98))


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call — one slot."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out
