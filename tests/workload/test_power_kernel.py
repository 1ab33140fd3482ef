"""The slot-ordered power kernel against the broadcast route it replaced.

``NodePowerModel.node_dc_power`` sums each node's chips slot by slot.  The
route before it broadcast every utilisation row to ``(k, slots, t)``, ran
the per-chip formula over the whole block and summed axis 1.  A copy of
that route lives here, and only here, as the reference: the kernel must
give its sums and its per-GPU block byte for byte, including one-sample
blocks, idle GPU slots, utilisations at and outside 0..1 and chips whose
factor pushes them into the cap.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import SUMMIT, SummitConfig
from repro.machine import ChipPopulation, NodePowerModel

GPU_CAP_FACTOR = ((1.1 * SUMMIT.gpu_tdp_w - SUMMIT.gpu_idle_w)
                  / (SUMMIT.gpu_tdp_w - SUMMIT.gpu_idle_w))
CPU_CAP_FACTOR = ((1.05 * SUMMIT.cpu_tdp_w - SUMMIT.cpu_idle_w)
                  / (SUMMIT.cpu_tdp_w - SUMMIT.cpu_idle_w))


def _gpu_power(u, config: SummitConfig, power_factor):
    u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
    dyn = (config.gpu_tdp_w - config.gpu_idle_w) * u * power_factor
    return np.clip(config.gpu_idle_w + dyn, 0.0, config.gpu_tdp_w * 1.1)


def _cpu_power(u, config: SummitConfig, power_factor):
    u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)
    dyn = (config.cpu_tdp_w - config.cpu_idle_w) * u * power_factor
    return np.clip(config.cpu_idle_w + dyn, 0.0, config.cpu_tdp_w * 1.05)


def broadcast_route(model, nodes, cpu_u, gpu_u, gpus_used):
    """The removed route: ``(k, slots, t)`` chip arrays, summed over slots.
    Returns ``(cpu_w, gpu_w, per_gpu)``."""
    cfg = model.config
    k, n_t = cpu_u.shape
    cu = np.clip(cpu_u, 0.0, 1.0)
    gu = np.clip(gpu_u, 0.0, 1.0)
    cpu_util = np.broadcast_to(cu[:, None, :], (k, cfg.cpus_per_node, n_t))
    gpu_util = np.broadcast_to(gu[:, None, :], (k, cfg.gpus_per_node, n_t))
    if gpus_used < cfg.gpus_per_node:
        gpu_util = gpu_util.copy()
        gpu_util[:, gpus_used:, :] = 0.0
    cf = model.chips.cpu_factors_of_nodes(nodes)[..., None]
    gf = model.chips.gpu_factors_of_nodes(nodes)[..., None]
    cpu_w = _cpu_power(cpu_util, cfg, cf)
    gpu_w = _gpu_power(gpu_util, cfg, gf)
    return cpu_w.sum(axis=1), gpu_w.sum(axis=1), gpu_w


def _utilisation(rng, k, n_t):
    """Utilisations over -0.5..1.5 with exact 0s and 1s sprinkled in."""
    u = rng.uniform(-0.5, 1.5, size=(k, n_t))
    u[rng.random((k, n_t)) < 0.15] = 0.0
    u[rng.random((k, n_t)) < 0.15] = 1.0
    return u


@given(
    k=st.integers(1, 40),
    n_t=st.sampled_from([1, 2, 3, 17, 60]),
    gpus_used=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_broadcast_route_bit_for_bit(k, n_t, gpus_used, seed):
    rng = np.random.default_rng(seed)
    cfg = SUMMIT.scaled(k)
    chips = ChipPopulation(cfg, seed=0)
    # factors from well under 1 to past the point where the cap binds
    chips.gpu_power_factor = rng.uniform(0.5, 1.5 * GPU_CAP_FACTOR,
                                         size=chips.gpu_power_factor.shape)
    chips.cpu_power_factor = rng.uniform(0.5, 1.5 * CPU_CAP_FACTOR,
                                         size=chips.cpu_power_factor.shape)
    model = NodePowerModel(cfg, chips)
    nodes = rng.permutation(k)
    cpu_u, gpu_u = _utilisation(rng, k, n_t), _utilisation(rng, k, n_t)

    want_cpu, want_gpu, want_detail = broadcast_route(
        model, nodes, cpu_u, gpu_u, gpus_used)
    detail = np.empty((k, cfg.gpus_per_node, n_t))
    cpu_w, gpu_w = model.node_dc_power(nodes, cpu_u, gpu_u, gpus_used,
                                       detail)
    assert cpu_w.tobytes() == want_cpu.tobytes()
    assert gpu_w.tobytes() == want_gpu.tobytes()
    assert detail.tobytes() == want_detail.tobytes()
    # without the detail array the sums are the same bits
    again = model.node_dc_power(nodes, cpu_u, gpu_u, gpus_used)
    assert again[0].tobytes() == want_cpu.tobytes()
    assert again[1].tobytes() == want_gpu.tobytes()


def test_cap_binds_in_the_reference_draws():
    """The factor range above does reach the clip: otherwise the test
    would not cover it."""
    rng = np.random.default_rng(0)
    cfg = SUMMIT.scaled(4)
    chips = ChipPopulation(cfg, seed=0)
    chips.gpu_power_factor = np.full(chips.gpu_power_factor.shape,
                                     1.2 * GPU_CAP_FACTOR)
    model = NodePowerModel(cfg, chips)
    detail = np.empty((4, 6, 5))
    model.node_dc_power(np.arange(4), rng.random((4, 5)), np.ones((4, 5)),
                        6, detail)
    assert np.all(detail == cfg.gpu_tdp_w * 1.1)


@pytest.mark.parametrize("track_alloc", [False, True])
def test_per_gpu_build_paints_the_same_node_arrays(twin, track_alloc):
    t0, t1 = 3_605.0, 7_205.0
    plain = twin.builder.build(t0, t1, 10.0, track_alloc=track_alloc)
    detail = twin.builder.build(t0, t1, 10.0, per_gpu=True,
                                track_alloc=track_alloc)
    for name in ("times", "node_input_w", "node_cpu_w", "node_gpu_w"):
        assert getattr(plain, name).tobytes() == getattr(detail, name).tobytes()
    assert plain.gpu_power_w is None
    assert (detail.gpu_power_w.sum(axis=1).tobytes()
            == detail.node_gpu_w.tobytes())
