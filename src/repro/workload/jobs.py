"""Job catalog generation (Dataset C analogue).

Generates the per-job records the scheduler consumes: scheduling class,
node count, submit time, walltimes, science domain / project / user, and the
flat application-profile parameters.  Distributions are anchored to the
paper's Figure 7 quantiles and Table 3 policy:

* class populations: the overwhelming majority of the 840k jobs are
  small (classes 3-5); leadership classes 1-2 are ~3% of jobs combined,
* class 1 node counts: >60% above ~87% of the machine, mode at the 4096
  analogue; class 2: 80% below the 1500 analogue, modes at 1024/1000,
* class 1 actual walltime: 80% under ~43 min; class 2: 80% under ~3 h,
* small classes: lognormal walltimes with a spike at the policy cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SummitConfig, SUMMIT
from repro.frame.table import Table
from repro.workload.apps import AppProfile, PROFILE_KINDS, sample_profile
from repro.workload.domains import DOMAINS, domain_by_name, project_id

#: Share of submitted jobs per scheduling class 1..5.
CLASS_WEIGHTS = (0.010, 0.022, 0.085, 0.083, 0.800)

#: Fraction of jobs that run into their class walltime cap and get killed.
CAP_HIT_FRACTION = 0.06


@dataclass
class JobCatalog:
    """The generated job population.

    ``table`` columns::

        allocation_id  int64   unique, 1-based
        submit_time    float64 seconds from horizon start
        node_count     int64
        sched_class    int64   1..5
        req_walltime_s float64 requested (class cap respected)
        walltime_s     float64 actual run time if started immediately
        domain         str
        project        str
        user_id        int64
        kind_code, cpu_base, cpu_amp, gpu_base, gpu_amp,
        period_s, duty, phase_s   -- AppProfile parameters
    """

    table: Table
    config: SummitConfig

    @property
    def n_jobs(self) -> int:
        return self.table.n_rows

    def profile(self, row: int) -> AppProfile:
        """Reconstruct the :class:`AppProfile` of catalog row ``row``."""
        t = self.table
        return AppProfile.from_code(
            t["kind_code"][row],
            t["cpu_base"][row],
            t["cpu_amp"][row],
            t["gpu_base"][row],
            t["gpu_amp"][row],
            t["period_s"][row],
            t["duty"][row],
            t["phase_s"][row],
        )

    def row_of_allocation(self, allocation_id: int) -> int:
        """Catalog row index for an allocation id (ids are 1-based dense)."""
        row = int(allocation_id) - 1
        if not 0 <= row < self.n_jobs or int(self.table["allocation_id"][row]) != int(
            allocation_id
        ):
            raise KeyError(f"unknown allocation_id {allocation_id}")
        return row


def _node_counts_for_class(
    rng: np.random.Generator,
    cls_index: int,
    lo: int,
    hi: int,
    n: int,
) -> np.ndarray:
    """Node counts for ``n`` jobs of one class within [lo, hi]."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    span = hi - lo
    if cls_index == 1:
        # mode at the "4096" analogue (88.9% of class max), second mode at
        # the full 4608 analogue, remainder spread across the range.
        mode = lo + int(round(span * (4096 - 2765) / (4608 - 2765)))
        choices = rng.random(n)
        out = np.empty(n, dtype=np.int64)
        m_mode = choices < 0.45
        m_full = (choices >= 0.45) & (choices < 0.63)
        m_rest = ~(m_mode | m_full)
        out[m_mode] = mode
        out[m_full] = hi
        k = int(m_rest.sum())
        out[m_rest] = lo + (rng.beta(1.2, 1.0, size=k) * span).astype(np.int64)
    elif cls_index == 2:
        f1024 = (1024 - 922) / (2764 - 922)
        f1000 = (1000 - 922) / (2764 - 922)
        m1 = lo + int(round(span * f1024))
        m2 = lo + int(round(span * f1000))
        choices = rng.random(n)
        out = np.empty(n, dtype=np.int64)
        a = choices < 0.25
        b = (choices >= 0.25) & (choices < 0.40)
        rest = ~(a | b)
        out[a] = m1
        out[b] = m2
        k = int(rest.sum())
        # 80% of class-2 jobs below the "1500" analogue -> beta skewed low
        out[rest] = lo + (rng.beta(0.9, 3.2, size=k) * span).astype(np.int64)
    else:
        # small classes: strongly low-skewed with round-number preference
        raw = lo + (rng.beta(0.8, 4.0, size=n) * span)
        out = np.maximum(np.round(raw), lo).astype(np.int64)
        if cls_index == 5:
            # many 1-2 node jobs
            single = rng.random(n) < 0.45
            out[single] = rng.integers(1, 3, size=int(single.sum()))
        elif cls_index == 3 and span >= 8:
            # users favor powers of two — the discrete popular node counts
            # behind Figure 6's multi-modal small-class distributions
            pows = 2 ** np.arange(2, 13)
            pows = pows[(pows >= lo) & (pows <= hi)]
            if len(pows):
                snap = rng.random(n) < 0.5
                k = int(snap.sum())
                out[snap] = rng.choice(pows, size=k)
    return np.clip(out, lo, hi)


def _walltimes_for_class(
    rng: np.random.Generator,
    cls_index: int,
    cap_s: float,
    n: int,
) -> np.ndarray:
    """Actual walltimes honoring the Figure 7 quantile anchors."""
    if n == 0:
        return np.empty(0, dtype=np.float64)
    # medians tuned so the 80th percentile lands near the paper's anchors
    if cls_index == 1:
        median = 16.0 * 60.0     # -> p80 ~ 43 min with sigma 1.15
        sigma = 1.15
    elif cls_index == 2:
        median = 70.0 * 60.0     # -> p80 ~ 3 h
        sigma = 1.1
    else:
        median = 0.18 * cap_s
        sigma = 1.0
    wt = rng.lognormal(np.log(median), sigma, size=n)
    capped = rng.random(n) < CAP_HIT_FRACTION
    wt[capped] = cap_s
    # jobs shorter than 2 coarsening windows are irrelevant noise; floor 30 s
    return np.clip(wt, 30.0, cap_s)


def _job_shapes(
    rng: np.random.Generator,
    config: SummitConfig,
    n_jobs: int,
    horizon_s: float,
    utilization_hint: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(class, node count, walltime, submit time)`` per job, drawn from
    ``rng`` in a fixed order: the class mix, each class's node counts and
    walltimes, the utilization thinning, then sorted submit times.

    ``utilization_hint`` (0..1), when given, keeps a random subset of jobs
    whose requested node-seconds ≈ hint * machine node-seconds.
    """
    classes_cfg = config.scheduling_classes()
    cls_draw = rng.choice(
        [c.index for c in classes_cfg], size=n_jobs, p=CLASS_WEIGHTS
    )
    node_count = np.empty(n_jobs, dtype=np.int64)
    walltime = np.empty(n_jobs, dtype=np.float64)
    for cls in classes_cfg:
        mask = cls_draw == cls.index
        k = int(mask.sum())
        node_count[mask] = _node_counts_for_class(
            rng, cls.index, cls.min_nodes, cls.max_nodes, k
        )
        walltime[mask] = _walltimes_for_class(
            rng, cls.index, cls.max_walltime_h * 3600.0, k
        )

    if utilization_hint is not None:
        demand = float((node_count * walltime).sum())
        capacity = config.n_nodes * horizon_s
        scale = utilization_hint * capacity / max(demand, 1.0)
        if scale < 1.0:
            keep = int(max(1, round(n_jobs * scale)))
            keep_idx = rng.choice(n_jobs, size=keep, replace=False)
            keep_idx.sort()
            cls_draw = cls_draw[keep_idx]
            node_count = node_count[keep_idx]
            walltime = walltime[keep_idx]
            n_jobs = keep

    submit = np.sort(rng.uniform(0.0, horizon_s, size=n_jobs))
    return cls_draw, node_count, walltime, submit


def generate_jobs(
    config: SummitConfig = SUMMIT,
    n_jobs: int = 10_000,
    horizon_s: float = 7 * 86400.0,
    seed: int = 0,
    utilization_hint: float | None = None,
) -> JobCatalog:
    """Generate a job catalog of ``n_jobs`` submitted over ``horizon_s``.

    ``utilization_hint`` (0..1), when given, rescales the job count so that
    the total requested node-seconds ≈ hint * machine node-seconds — useful
    to hit the paper's 5-6 MW average band without hand-tuning per scale.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10B5]))
    classes_cfg = config.scheduling_classes()
    cls_draw, node_count, walltime, submit = _job_shapes(
        rng, config, n_jobs, horizon_s, utilization_hint
    )
    n_jobs = len(submit)

    # domain / project / user assignment
    dom_weights = np.array([d.weight for d in DOMAINS])
    dom_weights = dom_weights / dom_weights.sum()
    dom_idx = rng.choice(len(DOMAINS), size=n_jobs, p=dom_weights)
    dom_names = np.array([d.name for d in DOMAINS])
    domains = dom_names[dom_idx]
    proj_pick = rng.integers(0, 1 << 30, size=n_jobs)
    projects = np.array(
        [
            project_id(DOMAINS[d], int(p % DOMAINS[d].n_projects))
            for d, p in zip(dom_idx, proj_pick)
        ]
    )
    # a handful of users per project (stable across processes: CRC32, not
    # Python's per-process-salted hash())
    import zlib

    user_ids = (
        np.array(
            [zlib.crc32(str(p).encode()) % 100_000 for p in projects],
            dtype=np.int64,
        ) * 8
        + rng.integers(0, 8, size=n_jobs)
    )

    # Application profiles.  Users overwhelmingly resubmit the same code:
    # each (project, user) gets a persistent base profile drawn once, and
    # every job of that user runs it with small run-to-run jitter.  This
    # per-user consistency is what makes Section 9's user-portrait
    # fingerprinting possible.
    prof_cols = {
        name: np.empty(n_jobs)
        for name in (
            "cpu_base", "cpu_amp", "gpu_base", "gpu_amp",
            "period_s", "duty", "phase_s",
        )
    }
    kind_code = np.empty(n_jobs, dtype=np.int64)
    # keyed by (user, class): class-conditional distributions stay exact
    # while each user's behavior at a given scale is persistent
    user_base: dict[tuple[int, int], "AppProfile"] = {}
    for i in range(n_jobs):
        uid = (int(user_ids[i]), int(cls_draw[i]))
        base = user_base.get(uid)
        if base is None:
            base = sample_profile(rng, domain_by_name(domains[i]), int(cls_draw[i]))
            user_base[uid] = base
        jitter = rng.normal(1.0, 0.06, 4)
        kind_code[i] = base.kind_code
        prof_cols["cpu_base"][i] = np.clip(base.cpu_base * jitter[0], 0.0, 1.0)
        prof_cols["cpu_amp"][i] = np.clip(base.cpu_amp * jitter[1], 0.0, 1.0)
        prof_cols["gpu_base"][i] = np.clip(base.gpu_base * jitter[2], 0.0, 1.0)
        prof_cols["gpu_amp"][i] = np.clip(base.gpu_amp * jitter[3], 0.0, 1.0)
        prof_cols["period_s"][i] = base.period_s * float(rng.normal(1.0, 0.04))
        prof_cols["duty"][i] = base.duty
        prof_cols["phase_s"][i] = float(rng.uniform(0.0, base.period_s))

    # GPUs used per node: small single-node jobs often use 1-3 GPUs
    # (slot 0 first), which drives Figure 16's GPU-0-heavy exposure.
    gpus_used = np.full(n_jobs, config.gpus_per_node, dtype=np.int64)
    small = (cls_draw == 5) & (node_count <= 2)
    k_small = int(small.sum())
    if k_small:
        gpus_used[small] = rng.choice(
            [1, 2, 3, config.gpus_per_node],
            size=k_small,
            p=[0.35, 0.15, 0.10, 0.40],
        )

    caps = {c.index: c.max_walltime_h * 3600.0 for c in classes_cfg}
    req = np.array(
        [min(caps[int(c)], w * rng.uniform(1.05, 1.6)) for c, w in zip(cls_draw, walltime)]
    )

    table = Table(
        {
            "allocation_id": np.arange(1, n_jobs + 1, dtype=np.int64),
            "submit_time": submit,
            "node_count": node_count,
            "sched_class": cls_draw.astype(np.int64),
            "req_walltime_s": req,
            "walltime_s": walltime,
            "domain": domains,
            "project": projects,
            "user_id": user_ids,
            "gpus_used": gpus_used,
            "kind_code": kind_code,
            **prof_cols,
        }
    )
    return JobCatalog(table=table, config=config)


def synthetic_catalog(
    config: SummitConfig = SUMMIT,
    n_jobs: int = 100_000,
    horizon_s: float = 365 * 86400.0,
    seed: int = 0,
) -> JobCatalog:
    """Fully vectorized catalog for scale benchmarks and stress tests.

    Same schema and class/node/walltime distributions as
    :func:`generate_jobs`, but the per-user profile-persistence loop (an
    O(n) Python pass that dominates above ~100k jobs) is replaced by
    independent vectorized profile draws — fine for scheduler and trace
    throughput work, wrong for Section 9 fingerprinting studies.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5CA1E]))
    classes_cfg = config.scheduling_classes()
    cls_draw, node_count, walltime, submit = _job_shapes(
        rng, config, n_jobs, horizon_s, None
    )

    # profile parameters: one vector draw per column, kind mix close to
    # the per-domain sampler's aggregate behavior
    kind_code = rng.choice(
        np.arange(len(PROFILE_KINDS), dtype=np.int64),
        size=n_jobs,
        p=[0.55, 0.20, 0.10, 0.08, 0.07],
    )
    gpu_base = np.clip(rng.beta(2.6, 2.6, size=n_jobs), 0.02, 0.98)
    cpu_base = np.clip(rng.beta(2.0, 5.0, size=n_jobs) * 0.6, 0.02, 0.9)
    gpu_amp = np.clip(rng.beta(2.0, 3.5, size=n_jobs) * 0.5, 0.0, 1.0)
    cpu_amp = np.clip(rng.beta(2.0, 6.0, size=n_jobs) * 0.4, 0.0, 0.6)
    steady = kind_code == 0
    gpu_amp[steady] = np.minimum(gpu_amp[steady], 0.08)
    cpu_amp[steady] = np.minimum(cpu_amp[steady], 0.05)
    period = np.clip(
        rng.lognormal(np.log(200.0), 0.45, size=n_jobs), 20.0, 2000.0
    )
    duty = np.clip(rng.beta(8.0, 5.0, size=n_jobs), 0.38, 0.72)
    phase = rng.uniform(0.0, period)

    gpus_used = np.full(n_jobs, config.gpus_per_node, dtype=np.int64)
    caps_by_idx = np.zeros(max(c.index for c in classes_cfg) + 1)
    for c in classes_cfg:
        caps_by_idx[c.index] = c.max_walltime_h * 3600.0
    req = np.minimum(
        caps_by_idx[cls_draw], walltime * rng.uniform(1.05, 1.6, size=n_jobs)
    )

    table = Table(
        {
            "allocation_id": np.arange(1, n_jobs + 1, dtype=np.int64),
            "submit_time": submit,
            "node_count": node_count,
            "sched_class": cls_draw.astype(np.int64),
            "req_walltime_s": req,
            "walltime_s": walltime,
            "domain": np.full(n_jobs, "Synthetic"),
            "project": np.full(n_jobs, "SYN000"),
            "user_id": rng.integers(0, 100_000, size=n_jobs),
            "gpus_used": gpus_used,
            "kind_code": kind_code,
            "cpu_base": cpu_base,
            "cpu_amp": cpu_amp,
            "gpu_base": gpu_base,
            "gpu_amp": gpu_amp,
            "period_s": period,
            "duty": duty,
            "phase_s": phase,
        }
    )
    return JobCatalog(table=table, config=config)
