"""GPU failure generation.

Two superimposed processes produce the log (Section 6.1's reading of the
data):

1. **Workload-proportional soft errors** — counts scale with a job's GPU
   node-hours, its project's proneness (order-of-magnitude spread across
   projects, Figure 14), and how GPU-active its code is.
2. **Defect-node concentration** — a handful of nodes with manufacturing
   defects carry a fixed share of each hardware type (Table 4's "max count
   per node" column), including the NVLink super-offender with ~97% of all
   NVLink errors.  Correlated types (Figure 13) draw their defect nodes
   from *shared pools*, so their per-node count vectors co-occur.

Temperature at failure is drawn as a skew-normal z-score against the job's
GPU temperature distribution (Figure 15): mostly symmetric, right-skewed
for double-bit / off-the-bus / microcontroller warnings (failures on GPUs
that "did not yet warm up"), never left-skewed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SummitConfig, SUMMIT, fahrenheit_to_celsius
from repro.frame.table import Table
from repro.frame.join import interval_join
from repro.machine.components import ChipPopulation
from repro.workload.apps import PROFILE_KINDS
from repro.workload.domains import domain_by_name
from repro.workload.jobs import JobCatalog
from repro.workload.scheduler import ScheduleResult
from repro.failures.xid import XID_TYPES, XidType

#: reference node-hours of the real 2020 deployment
FULL_YEAR_NODE_HOURS = SUMMIT.n_nodes * 8760.0

#: GPU core temperature of an idle, water-cooled V100 (degC)
IDLE_GPU_TEMP_C = 25.0

#: chip-to-chip temperature spread at equal power (degC, one sigma)
CHIP_TEMP_SIGMA_C = 3.0

#: share of failure-time temperatures lost to the spring/summer outage
TEMP_LOSS_FRACTION = 0.12


@dataclass
class FailureLog:
    """Generated XID log (Dataset E analogue).

    ``table`` columns: ``time``, ``node``, ``gpu_slot``, ``xid_code``,
    ``xid_index`` (row in :data:`XID_TYPES`), ``allocation_id`` (-1 when no
    job covered the node), ``project`` ("" when idle), ``gpu_temp_c``
    (NaN where telemetry was lost).
    """

    table: Table

    @property
    def n_failures(self) -> int:
        return self.table.n_rows

    def counts_by_type(self) -> dict[str, int]:
        """Failure count per type name, Table 4 ordering."""
        idx = self.table["xid_index"]
        counts = np.bincount(idx, minlength=len(XID_TYPES))
        return {t.name: int(c) for t, c in zip(XID_TYPES, counts)}

    def node_type_matrix(self, n_nodes: int) -> np.ndarray:
        """(n_nodes, n_types) count matrix for co-occurrence analysis."""
        out = np.zeros((n_nodes, len(XID_TYPES)), dtype=np.int64)
        np.add.at(out, (self.table["node"], self.table["xid_index"]), 1)
        return out

    def max_node_share(self) -> dict[str, float]:
        """Worst-node share per type (Table 4 col. 3)."""
        m = self.node_type_matrix(int(self.table["node"].max()) + 1 if self.n_failures else 1)
        tot = m.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            share = np.where(tot > 0, m.max(axis=0) / np.maximum(tot, 1), 0.0)
        return {t.name: float(s) for t, s in zip(XID_TYPES, share)}


def job_thermal_summary(catalog: JobCatalog) -> Table:
    """Per-job GPU temperature distribution summary (Dataset 10 condensed),
    at the nominal 70 degF supply plus the usual 0.6 degC.

    Derived in closed form from the job's profile parameters and the nominal
    thermal model: mean temperature from mean GPU power, std pooled from the
    temporal swing (profile amplitude) and the chip-to-chip spread.  The
    dense thermal simulation reproduces these numbers for windows it covers;
    this closed form extends them to every job in the catalog.
    """
    t = catalog.table
    cfg = catalog.config
    r_nom = ChipPopulation.GPU_THERMAL_R_NOMINAL
    dyn = cfg.gpu_tdp_w - cfg.gpu_idle_w

    kind = t["kind_code"]
    gb, ga, duty = t["gpu_base"], t["gpu_amp"], t["duty"]
    u_mean = gb.copy()
    u_amp = np.zeros_like(gb)

    bsp = kind == PROFILE_KINDS.index("bsp")
    u_mean = np.where(bsp, duty * np.minimum(gb + ga, 1.0)
                      + (1 - duty) * np.maximum(gb - ga, 0.0), u_mean)
    u_amp = np.where(bsp, ga, u_amp)
    chk = kind == PROFILE_KINDS.index("checkpoint")
    u_mean = np.where(chk, gb + 0.4 * ga, u_mean)
    u_amp = np.where(chk, 0.5 * ga, u_amp)
    ph = kind == PROFILE_KINDS.index("phased")
    u_mean = np.where(ph, 0.75 * np.minimum(gb + ga, 1.0) + 0.25 * 0.4 * gb, u_mean)
    u_amp = np.where(ph, 0.5 * ga, u_amp)
    rp = kind == PROFILE_KINDS.index("ramp")
    u_mean = np.where(rp, gb + 0.7 * ga, u_mean)
    u_amp = np.where(rp, 0.35 * ga, u_amp)
    u_mean = np.clip(u_mean, 0.0, 1.0)

    p_mean = cfg.gpu_idle_w + dyn * u_mean
    supply_c = fahrenheit_to_celsius(70.0) + 0.6
    temp_mean = supply_c + 1.2 + r_nom * p_mean
    temporal = r_nom * dyn * u_amp * 0.5
    temp_std = np.sqrt(temporal**2 + CHIP_TEMP_SIGMA_C**2)
    return Table(
        {
            "allocation_id": t["allocation_id"],
            "gpu_temp_mean": temp_mean,
            "gpu_temp_std": temp_std,
        }
    )


def _project_multipliers(catalog: JobCatalog, seed: int) -> np.ndarray:
    """Per-job failure-rate multiplier from project identity."""
    t = catalog.table
    projects = t["project"]
    import zlib

    uniq, inv = np.unique(projects, return_inverse=True)
    mult = np.empty(len(uniq))
    for i, p in enumerate(uniq):
        prng = np.random.default_rng(
            np.random.SeedSequence([seed, 0xFA17, zlib.crc32(str(p).encode())])
        )
        mult[i] = prng.lognormal(0.0, 0.9)
    # scale by the domain's proneness
    dom_scale = np.array(
        [domain_by_name(str(d)).failure_rate_scale for d in t["domain"]]
    )
    return mult[inv] * dom_scale


def _choose_slots(
    rng: np.random.Generator,
    xid: XidType,
    gpus_used: np.ndarray,
) -> np.ndarray:
    """Slot per failure: type propensity masked by the job's used slots."""
    n = len(gpus_used)
    out = np.empty(n, dtype=np.int64)
    w = np.asarray(xid.slot_weights, dtype=np.float64)
    for k in np.unique(gpus_used):
        sel = gpus_used == k
        wk = w[: int(k)]
        pk = wk / wk.sum()
        out[sel] = rng.choice(int(k), size=int(sel.sum()), p=pk)
    return out


def _defect_node_shares(xid: XidType) -> np.ndarray:
    """Relative shares of the type's defect failures across its defect nodes:
    the worst node takes ``max_node_share`` of the *type total*, the rest
    split geometrically."""
    k = xid.defect_nodes
    worst = xid.max_node_share / max(xid.defect_share, 1e-9)
    worst = min(worst, 1.0)
    if k == 1:
        return np.array([1.0])
    rest = (1.0 - worst) * (0.5 ** np.arange(k - 1))
    rest = rest / rest.sum() * (1.0 - worst)
    return np.concatenate([[worst], rest])


def generate_failures(
    catalog: JobCatalog,
    schedule: ScheduleResult,
    seed: int = 0,
    intensity: float = 1.0,
) -> FailureLog:
    """Generate the XID log for a scheduled twin period.

    ``intensity`` linearly scales all rates (use >1 to collect meaningful
    hardware-failure statistics on a small twin).  A
    :data:`TEMP_LOSS_FRACTION` share of temperatures is blanked to NaN,
    modeling the paper's spring/summer telemetry loss.
    """
    from scipy import stats

    cfg = catalog.config
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFA11]))
    al = schedule.allocations
    if al.n_rows == 0:
        raise ValueError("schedule contains no started allocations")

    # map allocation -> catalog row for profile/project columns
    cat = catalog.table
    rows = np.array([catalog.row_of_allocation(int(a)) for a in al["allocation_id"]])
    nh = al["node_count"] * (al["end_time"] - al["begin_time"]) / 3600.0
    proj_mult = _project_multipliers(catalog, seed)[rows]
    activity = (
        np.clip(cat["gpu_base"][rows] + 0.3 * cat["gpu_amp"][rows], 0.02, 1.2)
        * cat["gpus_used"][rows]
        / cfg.gpus_per_node
    )
    weight = nh * proj_mult * activity
    weight_p = weight / weight.sum()

    sim_nh = float(nh.sum())
    scale = sim_nh / FULL_YEAR_NODE_HOURS * intensity
    t0, t1 = float(al["begin_time"].min()), float(al["end_time"].max())

    # defect pools: correlated types share nodes.  Pools are disjoint
    # slices of one permutation; on toy machines with fewer nodes than
    # 8 x groups the slices shrink (and may repeat within a type).
    pool_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDEFE]))
    groups = sorted({g for t in XID_TYPES if (g := t.defect_group)})
    perm = pool_rng.permutation(cfg.n_nodes)
    pool_size = max(1, min(8, cfg.n_nodes // max(len(groups), 1)))
    pools: dict[str, np.ndarray] = {
        g: perm[i * pool_size: (i + 1) * pool_size]
        for i, g in enumerate(groups)
    }

    pieces: list[dict[str, np.ndarray]] = []

    for xi, xid in enumerate(XID_TYPES):
        expected = xid.annual_count * scale
        n_total = int(rng.poisson(expected)) if expected < 1e6 else int(round(expected))
        if n_total == 0:
            continue
        n_defect = int(rng.binomial(n_total, xid.defect_share))
        n_work = n_total - n_defect

        # ---- workload-proportional part ----
        if n_work > 0:
            per_job = rng.multinomial(n_work, weight_p)
            jobs_hit = np.repeat(np.arange(al.n_rows), per_job)
            begins = al["begin_time"][jobs_hit]
            ends = al["end_time"][jobs_hit]
            times = rng.uniform(begins, ends)
            # node: uniform over the job's nodes; jobs_hit is sorted by
            # construction, so walk its groups via the multinomial counts
            nodes = np.empty(n_work, dtype=np.int64)
            pos = 0
            for j in np.flatnonzero(per_job):
                cnt = int(per_job[j])
                nl = schedule.nodes_of(int(al["allocation_id"][j]))
                nodes[pos: pos + cnt] = nl[rng.integers(0, len(nl), size=cnt)]
                pos += cnt
            gpus_used = cat["gpus_used"][rows[jobs_hit]]
            slots = _choose_slots(rng, xid, gpus_used)
            pieces.append(
                {
                    "time": times,
                    "node": nodes,
                    "gpu_slot": slots,
                    "xid_index": np.full(n_work, xi, dtype=np.int64),
                    "allocation_id": al["allocation_id"][jobs_hit].astype(np.int64),
                    "_job_row": rows[jobs_hit].astype(np.int64),
                }
            )

        # ---- defect-node part ----
        if n_defect > 0:
            if xid.defect_group is not None:
                pool = pools[xid.defect_group]
                dnodes = pool[: min(xid.defect_nodes, len(pool))]
            else:
                dnodes = pool_rng.integers(0, cfg.n_nodes, size=xid.defect_nodes)
            shares = _defect_node_shares(xid)[: len(dnodes)]
            shares = shares / shares.sum()
            per_node = rng.multinomial(n_defect, shares)
            nodes = np.repeat(dnodes, per_node)
            times = rng.uniform(t0, t1, size=n_defect)
            slots = _choose_slots(
                rng, xid, np.full(n_defect, cfg.gpus_per_node, dtype=np.int64)
            )
            pieces.append(
                {
                    "time": times,
                    "node": nodes.astype(np.int64),
                    "gpu_slot": slots,
                    "xid_index": np.full(n_defect, xi, dtype=np.int64),
                    "allocation_id": np.full(n_defect, -2, dtype=np.int64),
                    "_job_row": np.full(n_defect, -1, dtype=np.int64),
                }
            )

    if not pieces:
        return FailureLog(
            Table(
                {
                    "time": np.empty(0),
                    "node": np.empty(0, np.int64),
                    "gpu_slot": np.empty(0, np.int64),
                    "xid_index": np.empty(0, np.int64),
                    "xid_code": np.empty(0, np.int64),
                    "allocation_id": np.empty(0, np.int64),
                    "project": np.empty(0, dtype="U8"),
                    "gpu_temp_c": np.empty(0),
                }
            )
        )

    merged = {
        k: np.concatenate([p[k] for p in pieces]) for k in pieces[0]
    }
    order = np.argsort(merged["time"], kind="stable")
    merged = {k: v[order] for k, v in merged.items()}
    n = len(merged["time"])

    # attach the covering allocation to defect failures via interval join
    pending = merged["allocation_id"] == -2
    if pending.any():
        samples = Table(
            {"node": merged["node"][pending], "t": merged["time"][pending]}
        )
        joined = interval_join(
            samples,
            schedule.node_allocations,
            time="t",
            begin="begin_time",
            end="end_time",
            by="node",
            id_columns=("allocation_id",),
        )
        merged["allocation_id"][pending] = joined["allocation_id"]

    # project and thermal context
    alloc = merged["allocation_id"]
    job_row = merged["_job_row"].copy()
    need_row = (job_row < 0) & (alloc > 0)
    if need_row.any():
        job_row[need_row] = np.array(
            [catalog.row_of_allocation(int(a)) for a in alloc[need_row]]
        )
    has_job = job_row >= 0
    projects = np.where(
        has_job, cat["project"][np.maximum(job_row, 0)], ""
    ).astype(cat["project"].dtype)

    # temperature at failure: skew-normal z against the job's distribution
    thermal = job_thermal_summary(catalog)
    tmean = np.where(has_job,
                     thermal["gpu_temp_mean"][np.maximum(job_row, 0)],
                     IDLE_GPU_TEMP_C)
    tstd = np.where(has_job,
                    thermal["gpu_temp_std"][np.maximum(job_row, 0)],
                    1.5)
    temps = np.empty(n)
    for xi, xid in enumerate(XID_TYPES):
        sel = merged["xid_index"] == xi
        k = int(sel.sum())
        if k == 0:
            continue
        z = stats.skewnorm.rvs(
            a=xid.z_skew if xid.z_skew != 0 else 1e-9,
            loc=xid.z_loc,
            scale=xid.z_scale,
            size=k,
            random_state=rng,
        )
        tv = tmean[sel] + z * tstd[sel]
        if np.isfinite(xid.temp_cap_c):
            tv = np.minimum(tv, xid.temp_cap_c)
        temps[sel] = tv
    temps = np.maximum(temps, 18.0)

    lost = rng.random(n) < TEMP_LOSS_FRACTION
    temps[lost] = np.nan

    codes = np.array([t.code for t in XID_TYPES], dtype=np.int64)
    table = Table(
        {
            "time": merged["time"],
            "node": merged["node"],
            "gpu_slot": merged["gpu_slot"],
            "xid_index": merged["xid_index"],
            "xid_code": codes[merged["xid_index"]],
            "allocation_id": alloc,
            "project": projects,
            "gpu_temp_c": temps,
        }
    )
    return FailureLog(table)
