"""Application power-profile archetypes.

Section 4.2 attributes Summit's power dynamics to the "well-known behavior
of HPC applications themselves": large-scale synchronous parallelism makes
whole allocations swing together.  Five archetypes cover the behaviors the
paper quantifies:

``steady``
    Flat utilization (most jobs: 96.9% of jobs show no power edges).
``bsp``
    Bulk-synchronous compute/communicate square wave — the source of the
    ~200 s dominant FFT period and of the repeated cluster-level edges.
``phased``
    A few long phases at different levels (setup -> compute -> output);
    produces sustained leadership-class edges (Class 1 edge durations).
``checkpoint``
    High plateau with periodic short dips to near-idle (defensive I/O).
``ramp``
    Gradual rise to a plateau then fall — jobs with long startup.

A profile is a flat parameter record so the whole job catalog stays
columnar; :func:`profile_utilization` evaluates (cpu, gpu) utilization
vectorized over time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workload.domains import Domain

#: Archetype code order (stored as int8 in catalogs).
PROFILE_KINDS = ("steady", "bsp", "phased", "checkpoint", "ramp")
_KIND_CODE = {k: i for i, k in enumerate(PROFILE_KINDS)}


@dataclass(frozen=True)
class AppProfile:
    """Flat parameter record of one job's application behavior.

    Utilization is piecewise in ``[0, 1]``; see :func:`profile_utilization`
    for the exact semantics per kind.
    """

    kind: str
    cpu_base: float
    cpu_amp: float
    gpu_base: float
    gpu_amp: float
    period_s: float
    duty: float       # fraction of a period at the high level (bsp)
    phase_s: float    # random phase offset so jobs are not aligned

    @property
    def kind_code(self) -> int:
        return _KIND_CODE[self.kind]

    @classmethod
    def from_code(
        cls,
        kind_code: int,
        cpu_base: float,
        cpu_amp: float,
        gpu_base: float,
        gpu_amp: float,
        period_s: float,
        duty: float,
        phase_s: float,
    ) -> "AppProfile":
        return cls(
            PROFILE_KINDS[int(kind_code)],
            float(cpu_base),
            float(cpu_amp),
            float(gpu_base),
            float(gpu_amp),
            float(period_s),
            float(duty),
            float(phase_s),
        )


def sample_profile(
    rng: np.random.Generator,
    domain: Domain,
    sched_class: int,
) -> AppProfile:
    """Draw a profile for one job of ``domain`` in scheduling class 1-5.

    Class 4 gets a boosted probability of high-amplitude fast ``bsp``
    behavior (the paper: "Class 4 jobs experience the most edges and the
    durations of each edge is incredibly short"); classes 1-2 lean toward
    ``phased``/``checkpoint`` with sustained swings.
    """
    # GPU-heaviness: mixture of GPU-centric and CPU-centric codes.  Figure 9:
    # density hugs the axes — jobs are either GPU-focused or CPU-focused.
    if rng.random() < domain.gpu_affinity:
        gpu_base = float(np.clip(rng.beta(2.6, 2.6), 0.02, 0.98))
        cpu_base = float(np.clip(rng.beta(2.0, 5.0) * 0.6, 0.02, 0.9))
    else:
        gpu_base = float(np.clip(rng.beta(1.3, 8.0) * 0.5, 0.0, 0.9))
        cpu_base = float(np.clip(rng.beta(5.0, 2.2), 0.05, 0.98))

    periodic_p = domain.periodic_prob * (1.6 if sched_class == 4 else 1.0)
    r = rng.random()
    if r < min(periodic_p, 0.9):
        kind = "bsp" if rng.random() < (0.75 if sched_class >= 3 else 0.45) else "checkpoint"
    elif r < min(periodic_p, 0.9) + 0.25:
        kind = "phased" if rng.random() < 0.6 else "ramp"
    else:
        kind = "steady"

    # Dominant period ~200 s (0.005 Hz) across classes, 20 s .. 2000 s range.
    period = float(np.clip(rng.lognormal(np.log(200.0), 0.45), 20.0, 2000.0))
    if kind == "checkpoint":
        period = float(np.clip(rng.lognormal(np.log(400.0), 0.4), 60.0, 3600.0))

    amp_scale = domain.amp_scale * (1.35 if sched_class == 4 else 1.0)
    gpu_amp = float(np.clip(rng.beta(2.0, 3.5) * amp_scale, 0.0, 1.0))
    cpu_amp = float(np.clip(rng.beta(2.0, 6.0) * 0.4, 0.0, 0.6))
    if kind == "steady":
        gpu_amp = float(min(gpu_amp, 0.08))
        cpu_amp = float(min(cpu_amp, 0.05))

    # compute/communicate duty centered near 0.6: measured BSP codes spend
    # roughly half to two-thirds of each period in the compute phase, and
    # this is also what makes the *fundamental* ~200 s period the most
    # common dominant FFT mode (higher duty pushes energy into harmonics,
    # producing the paper's taper toward 0.05 Hz).
    duty = float(np.clip(rng.beta(8.0, 5.0), 0.38, 0.72))
    phase = float(rng.uniform(0.0, period))
    return AppProfile(kind, cpu_base, cpu_amp, gpu_base, gpu_amp, period, duty, phase)


def profile_utilization(
    profile: AppProfile,
    t: np.ndarray,
    duration: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (cpu_util, gpu_util) at times ``t`` (seconds from job start).

    Both outputs are clipped to [0, 1].  ``duration`` is the job's wall
    time; ``phased`` and ``ramp`` scale their envelope to it.
    """
    t = np.asarray(t, dtype=np.float64)
    kind = profile.kind
    cb, ca = profile.cpu_base, profile.cpu_amp
    gb, ga = profile.gpu_base, profile.gpu_amp

    if kind == "steady":
        cpu = np.full_like(t, cb)
        gpu = np.full_like(t, gb)
    elif kind == "bsp":
        # trapezoidal wave: high for `duty` fraction with short ramps
        # (~10% of the period) — thousands of nodes never switch phase in
        # perfect lockstep, which is also what keeps the *fundamental*
        # period dominant in the differenced FFT rather than harmonics.
        frac = np.mod(t + profile.phase_s, profile.period_s) / profile.period_s
        w = 0.10
        up = np.clip(frac / w, 0.0, 1.0)
        down = np.clip((profile.duty - frac) / w, 0.0, 1.0)
        high = np.minimum(up, down)  # 1 on the plateau, ramps at the edges
        lo_level = np.maximum(gb - ga, 0.0)
        gpu = lo_level + (gb + ga - lo_level) * high
        # communication phase leans on CPU: mild anti-correlation
        cpu = np.minimum(cb + ca, 1.0) - ca * high
    elif kind == "checkpoint":
        # plateau with dips of ~8% of the period to near-idle GPU
        frac = np.mod(t + profile.phase_s, profile.period_s) / profile.period_s
        dip = frac > 0.92
        gpu = np.where(dip, np.maximum(gb - ga, 0.02), gb + 0.5 * ga)
        cpu = np.where(dip, np.minimum(cb + 0.3, 1.0), cb)
    elif kind == "phased":
        # setup (10%) -> compute (75%) -> output (15%)
        frac = np.clip(t / max(duration, 1.0), 0.0, 1.0)
        gpu = np.where(
            frac < 0.10,
            0.3 * gb,
            np.where(frac < 0.85, np.minimum(gb + ga, 1.0), 0.5 * gb),
        )
        cpu = np.where(frac < 0.10, np.minimum(cb + ca, 1.0), cb)
    elif kind == "ramp":
        rise = np.clip(t / (0.25 * max(duration, 1.0)), 0.0, 1.0)
        fall = np.clip((duration - t) / (0.15 * max(duration, 1.0)), 0.0, 1.0)
        env = np.minimum(rise, fall)
        gpu = gb + ga * env
        cpu = np.full_like(t, cb)
    else:  # pragma: no cover - guarded by dataclass construction
        raise ValueError(f"unknown profile kind {kind!r}")

    return np.clip(cpu, 0.0, 1.0), np.clip(gpu, 0.0, 1.0)

