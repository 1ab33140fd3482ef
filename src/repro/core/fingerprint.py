"""Job power-profile fingerprinting (Section 9 future work).

Builds per-job fingerprint vectors from the derived datasets, clusters them
(k-means), forms per-user "portraits", and evaluates whether a queued job's
power is better predicted from its user's portrait than from the global
history alone — the paper's proposed predictive-analytics direction.
"""

from __future__ import annotations

import numpy as np

from repro.frame.join import join
from repro.frame.table import Table

FEATURE_NAMES = (
    "mean_w_per_node",
    "max_w_per_node",
    "swing_w_per_node",
    "log10_energy_j",
    "fft_freq_hz",
    "fft_amp_w_per_node",
    "edges_per_hour",
    "log10_node_count",
)


def job_fingerprints(
    power_summary: Table,
    energy: Table,
    spectral: Table,
    per_job_edges: Table,
    catalog_table: Table,
) -> dict[str, np.ndarray]:
    """Assemble the fingerprint matrix.

    Inputs are the Dataset 5/7 summaries, the spectral summary, and the
    per-job edge counts; ``catalog_table`` supplies user and node count.
    Returns ``{"allocation_id", "features" (n, 8), "user_id", "names"}``
    with features standardized to zero mean / unit variance.
    """
    t = join(power_summary, energy.select(["allocation_id", "energy"]),
             "allocation_id", how="inner")
    t = join(t, spectral.select(["allocation_id", "fft_freq_hz", "fft_amplitude_w"]),
             "allocation_id", how="inner")
    t = join(t, per_job_edges.select(["allocation_id", "node_count", "n_edges"]),
             "allocation_id", how="inner")
    t = join(
        t,
        catalog_table.select(["allocation_id", "user_id", "sched_class"]),
        "allocation_id",
        how="inner",
    )

    nodes = np.maximum(t["node_count"].astype(np.float64), 1.0)
    hours = np.maximum((t["end_time"] - t["begin_time"]) / 3600.0, 1e-3)
    feats = np.column_stack(
        [
            t["mean_sum_inp"] / nodes,
            t["max_sum_inp"] / nodes,
            (t["max_sum_inp"] - t["mean_sum_inp"]) / nodes,
            np.log10(np.maximum(t["energy"], 1.0)),
            np.nan_to_num(t["fft_freq_hz"], nan=0.0),
            np.nan_to_num(t["fft_amplitude_w"], nan=0.0) / nodes,
            t["n_edges"] / hours,
            np.log10(nodes),
        ]
    )
    mu = feats.mean(axis=0)
    sd = feats.std(axis=0)
    sd[sd == 0] = 1.0
    return {
        "allocation_id": t["allocation_id"],
        "features": (feats - mu) / sd,
        "raw_features": feats,
        "user_id": t["user_id"],
        "sched_class": t["sched_class"],
        "names": np.array(FEATURE_NAMES),
        "mean_w_per_node": feats[:, 0],
    }


def kmeans(
    x: np.ndarray, k: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd's k-means (k-means++ init, at most 50 rounds); returns
    (centers, labels)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if k <= 0 or k > n:
        raise ValueError(f"k={k} invalid for {n} points")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4EA5]))

    # k-means++ seeding
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        p = d2 / max(d2.sum(), 1e-12)
        centers[i] = x[rng.choice(n, p=p)]
        d2 = np.minimum(d2, ((x - centers[i]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(50):
        dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dist.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for i in range(k):
            sel = labels == i
            if sel.any():
                centers[i] = x[sel].mean(axis=0)
    return centers, labels


def user_portraits(
    features: np.ndarray, user_id: np.ndarray
) -> dict[int, np.ndarray]:
    """Average fingerprint per user (the paper's "user-portraits")."""
    features = np.asarray(features, dtype=np.float64)
    out: dict[int, np.ndarray] = {}
    for u in np.unique(user_id):
        out[int(u)] = features[user_id == u].mean(axis=0)
    return out


def portrait_prediction_error(
    fingerprints: dict[str, np.ndarray],
    seed: int = 0,
) -> dict[str, float]:
    """Predict per-node mean power of the held-out 30 % of jobs.

    Compares the global-history baseline (predict the training mean) with
    the user-portrait predictor.  Following the paper ("queued jobs will
    assume the average power portrait of the user *given job size*, job
    launch arguments, and project ID"), the portrait is conditioned on the
    job's scheduling class when available, falling back to the user's
    overall portrait and then to the global mean.  Returns MAEs and the
    improvement ratio — the quantity that motivates Section 9's claim that
    power history alone is insufficient.
    """
    y = np.asarray(fingerprints["mean_w_per_node"], dtype=np.float64)
    users = np.asarray(fingerprints["user_id"])
    classes = fingerprints.get("sched_class")
    classes = (np.asarray(classes) if classes is not None
               else np.zeros(len(y), dtype=np.int64))
    n = len(y)
    if n < 10:
        raise ValueError("need at least 10 jobs")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0A7]))
    perm = rng.permutation(n)
    n_train = int(round(0.7 * n))
    tr, te = perm[:n_train], perm[n_train:]

    global_mean = y[tr].mean()
    user_mean: dict[int, float] = {}
    for u in np.unique(users[tr]):
        user_mean[int(u)] = float(y[tr][users[tr] == u].mean())
    composite = users[tr].astype(np.int64) * 16 + classes[tr].astype(np.int64)
    uniq, inv = np.unique(composite, return_inverse=True)
    sums = np.bincount(inv, weights=y[tr])
    counts = np.bincount(inv)
    uc_mean: dict[tuple[int, int], float] = {
        (int(k // 16), int(k % 16)): float(s / c)
        for k, s, c in zip(uniq, sums, counts)
    }

    pred_global = np.full(len(te), global_mean)
    pred_user = np.array(
        [
            uc_mean.get(
                (int(u), int(c)),
                user_mean.get(int(u), global_mean),
            )
            for u, c in zip(users[te], classes[te])
        ]
    )
    mae_global = float(np.abs(y[te] - pred_global).mean())
    mae_user = float(np.abs(y[te] - pred_user).mean())
    return {
        "mae_global_w": mae_global,
        "mae_portrait_w": mae_user,
        "improvement": (mae_global - mae_user) / max(mae_global, 1e-9),
        "n_test": float(len(te)),
    }

