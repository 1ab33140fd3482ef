"""BMC sampling + fan-in collection (Figure 3's data path).

:class:`TelemetrySampler` turns dense physical traces into the archived
telemetry table: per-node 1 Hz rows with sensor noise, quantization,
collector-side timestamping delay (payloads are stamped on arrival, mean
2.5 s / max 5 s late), and configurable data-loss episodes (the paper lost
GPU temperature data in spring 2020 and one full cabinet during the
Figure 17 job).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.config import SummitConfig, SUMMIT
from repro.frame.table import Table
from repro.telemetry.sensors import (
    quantize_power,
    quantize_temperature,
    sensor_gains,
    SAMPLING_NOISE_FRACTION,
)
from repro.workload.traces import TraceArrays


@dataclass(frozen=True)
class LossEvent:
    """A telemetry outage: rows/fields blanked for matching samples.

    ``scope`` is ``"temperature"`` (GPU/CPU temperature fields -> NaN),
    ``"power"`` (power fields -> NaN), or ``"all"`` (rows dropped, the
    whole-cabinet case).
    """

    t_begin: float
    t_end: float
    nodes: tuple[int, ...] | None = None  # None = every node
    scope: str = "temperature"

    def mask(self, node: np.ndarray, t: np.ndarray) -> np.ndarray:
        m = (t >= self.t_begin) & (t < self.t_end)
        if self.nodes is not None:
            m &= np.isin(node, np.asarray(self.nodes))
        return m


#: blanking scope -> the column-name fragment it sets to NaN
_BLANKED = {"temperature": "temp", "power": "power"}


def apply_loss(
    table: Table, events: Sequence[LossEvent], t: np.ndarray
) -> tuple[Table, int, int]:
    """``table`` with ``events`` applied, each masked on the times ``t``.

    An ``"all"`` event drops its rows; ``"temperature"`` and ``"power"``
    set every column whose name holds ``temp`` / ``power`` to NaN on
    theirs (in float64 copies: ``table`` is never written).  Returns
    ``(table, dropped, blanked)``: the rows dropped, and the rows blanked
    summed over blanking events.  An event that matches no row is
    skipped; one that matches with another scope is a ``ValueError``.
    """
    if not events:
        return table, 0, 0
    node = table["node"] if "node" in table else np.zeros(
        table.n_rows, dtype=np.int64
    )
    cols = table.as_dict()
    drop = np.zeros(table.n_rows, dtype=bool)
    blanked = 0
    for ev in events:
        m = ev.mask(node, t)
        if not m.any():
            continue
        if ev.scope == "all":
            drop |= m
        elif ev.scope in _BLANKED:
            for name in cols:
                if _BLANKED[ev.scope] in name:
                    col = cols[name].astype(np.float64, copy=True)
                    col[m] = np.nan
                    cols[name] = col
            blanked += int(m.sum())
        else:
            raise ValueError(f"unknown loss scope {ev.scope!r}")
    out = Table(cols)
    dropped = int(drop.sum())
    return (out.filter(~drop) if dropped else out), dropped, blanked


class TelemetrySampler:
    """Produce Dataset A-style rows from dense traces."""

    MEAN_DELAY_S = 2.5
    MAX_DELAY_S = 5.0

    def __init__(
        self,
        config: SummitConfig = SUMMIT,
        seed: int = 0,
        loss_events: Sequence[LossEvent] = (),
    ):
        self.config = config
        self.loss_events = list(loss_events)
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E1E]))
        self.node_gain = sensor_gains(self._rng, config.n_nodes)

    def sample(
        self,
        arrays: TraceArrays,
        gpu_temps: np.ndarray | None = None,
    ) -> Table:
        """Long telemetry table from physical arrays.

        ``gpu_temps``: optional ``(n_nodes, 6, n_t)`` core temperatures.

        Output columns: ``node``, ``timestamp`` (collector-stamped),
        ``input_power``, ``p0_power``, ``p1_power``, optional
        ``p{s}_gpu{g}_power`` (when per-GPU detail is present), optional
        ``gpu{g}_core_temp``.
        """
        rng = self._rng
        n, n_t = arrays.node_input_w.shape
        node_col = np.repeat(np.arange(n, dtype=np.int64), n_t)
        true_t = np.tile(arrays.times, n)

        delay = rng.uniform(0.0, self.MAX_DELAY_S, size=node_col.shape)
        stamped = true_t + delay

        gain = self.node_gain[node_col]
        dyn = 0.05 * arrays.node_input_w.reshape(-1) + 15.0
        noise = rng.normal(0.0, 1.0, node_col.shape) * SAMPLING_NOISE_FRACTION * dyn
        inp = quantize_power(
            np.maximum(arrays.node_input_w.reshape(-1) * gain + noise, 0.0)
        )

        # per-socket CPU power: near-even split plus imbalance noise
        split = rng.normal(0.5, 0.015, node_col.shape)
        cpu_total = arrays.node_cpu_w.reshape(-1)
        p0 = quantize_power(np.maximum(cpu_total * split, 0.0))
        p1 = quantize_power(np.maximum(cpu_total - p0, 0.0))

        cols: dict[str, np.ndarray] = {
            "node": node_col,
            "timestamp": stamped,
            "input_power": inp,
            "p0_power": p0,
            "p1_power": p1,
        }
        cols["gpu_power_total"] = quantize_power(
            np.maximum(
                arrays.node_gpu_w.reshape(-1)
                + rng.normal(0.0, 4.0, node_col.shape),
                0.0,
            )
        )

        if arrays.gpu_power_w is not None:
            for g in range(self.config.gpus_per_node):
                s, gi = divmod(g, 3)
                raw = arrays.gpu_power_w[:, g, :].reshape(-1)
                cols[f"p{s}_gpu{gi}_power"] = quantize_power(
                    np.maximum(raw + rng.normal(0.0, 3.0, raw.shape), 0.0)
                )
        if gpu_temps is not None:
            for g in range(self.config.gpus_per_node):
                raw = gpu_temps[:, g, :].reshape(-1)
                cols[f"gpu{g}_core_temp"] = quantize_temperature(
                    raw + rng.normal(0.0, 0.4, raw.shape)
                )

        table, _, _ = apply_loss(Table(cols), self.loss_events, true_t)
        return table
