"""Unit tests for schema, sensors, collector, and MSB meters."""

import numpy as np
import pytest

from repro.config import SUMMIT
from repro.machine import Topology
from repro.telemetry import (
    LossEvent,
    MsbMeters,
    TelemetrySampler,
    quantize_power,
)
from repro.telemetry.schema import METRICS, N_METRICS
from repro.telemetry.sensors import quantize_temperature, sensor_gains


class TestSchema:
    def test_over_100_metrics(self):
        assert N_METRICS > 100

    def test_names_unique(self):
        names = [m.name for m in METRICS]
        assert len(names) == len(set(names))

    def test_kind_partition(self):
        p = {m.name for m in METRICS if m.kind == "power"}
        t = {m.name for m in METRICS if m.kind == "temperature"}
        assert not (p & t)
        assert "input_power" in p
        assert "gpu0_core_temp" in t


class TestSensors:
    def test_quantize_power(self):
        assert np.array_equal(quantize_power(np.array([1.4, 1.6])), [1.0, 2.0])

    def test_quantize_temperature(self):
        assert np.array_equal(quantize_temperature(np.array([45.4])), [45.0])

    def test_sensor_gains_near_one(self, rng):
        g = sensor_gains(rng, 5000)
        assert abs(g.mean() - 1.0) < 0.001


class TestSampler:
    def test_row_count_and_columns(self, twin):
        arr = twin.builder.build(0.0, 60.0, 1.0, per_gpu=True)
        tel = twin.sampler().sample(arr)
        assert tel.n_rows == twin.config.n_nodes * 60
        assert "input_power" in tel
        assert "p0_gpu0_power" in tel

    def test_timestamps_delayed(self, twin):
        arr = twin.builder.build(0.0, 30.0, 1.0)
        tel = twin.sampler().sample(arr)
        true_t = np.tile(arr.times, twin.config.n_nodes)
        delay = tel["timestamp"] - true_t
        assert np.all(delay >= 0.0)
        assert np.all(delay <= TelemetrySampler.MAX_DELAY_S)
        assert 1.5 < delay.mean() < 3.5  # paper: 2.5 s average

    def test_power_tracks_truth(self, twin):
        arr = twin.builder.build(0.0, 60.0, 1.0)
        tel = twin.sampler().sample(arr)
        meas = tel["input_power"].reshape(twin.config.n_nodes, -1)
        err = (meas - arr.node_input_w) / arr.node_input_w
        assert abs(err.mean()) < 0.02
        assert np.percentile(np.abs(err), 95) < 0.2

    def test_socket_split_sums_to_cpu_total(self, twin):
        arr = twin.builder.build(0.0, 20.0, 1.0)
        tel = twin.sampler().sample(arr)
        total = (tel["p0_power"] + tel["p1_power"]).reshape(
            twin.config.n_nodes, -1
        )
        assert np.allclose(total, arr.node_cpu_w, atol=1.5)

    def test_temperature_channels(self, twin):
        arr = twin.builder.build(0.0, 20.0, 1.0, per_gpu=True)
        temps = twin.thermal.gpu_temperature(
            np.arange(twin.config.n_nodes), arr.gpu_power_w, 21.1, 1.0
        )
        tel = twin.sampler().sample(arr, gpu_temps=temps)
        assert "gpu5_core_temp" in tel
        assert 20.0 < np.nanmean(tel["gpu0_core_temp"]) < 70.0

    def test_loss_event_temperature(self, twin):
        arr = twin.builder.build(0.0, 20.0, 1.0, per_gpu=True)
        temps = twin.thermal.gpu_temperature(
            np.arange(twin.config.n_nodes), arr.gpu_power_w, 21.1, 1.0
        )
        ev = LossEvent(5.0, 15.0, scope="temperature")
        tel = twin.sampler().sample(arr, gpu_temps=temps)
        tel_lost = TelemetrySampler(twin.config, twin.spec.seed, [ev]).sample(
            arr, gpu_temps=temps
        )
        assert np.isnan(tel_lost["gpu0_core_temp"]).any()
        assert not np.isnan(tel_lost["input_power"]).any()
        assert not np.isnan(tel["gpu0_core_temp"]).any()

    def test_loss_event_drops_rows(self, twin):
        arr = twin.builder.build(0.0, 20.0, 1.0)
        ev = LossEvent(0.0, 20.0, nodes=(0, 1), scope="all")
        tel = TelemetrySampler(twin.config, 0, [ev]).sample(arr)
        assert tel.n_rows == (twin.config.n_nodes - 2) * 20
        assert 0 not in tel["node"]

    def test_unknown_scope(self, twin):
        arr = twin.builder.build(0.0, 10.0, 1.0)
        ev = LossEvent(0.0, 10.0, scope="everything")
        with pytest.raises(ValueError):
            TelemetrySampler(twin.config, 0, [ev]).sample(arr)


class TestMsbMeters:
    def test_meter_above_summation(self, twin):
        """Figure 4: summation sits systematically below the meter."""
        arr = twin.builder.build(0.0, 600.0, 10.0)
        msb = twin.msb
        meter = msb.measure(arr.node_input_w)
        summ = msb.node_summation(arr.node_input_w)
        diff = summ - meter
        assert diff.mean() < 0
        rel = abs(diff.sum(axis=0).mean()) / meter.sum(axis=0).mean()
        assert 0.05 < rel < 0.18  # paper: ~11%

    def test_per_msb_offsets_differ(self, twin):
        arr = twin.builder.build(0.0, 600.0, 10.0)
        meter = twin.msb.measure(arr.node_input_w)
        summ = twin.msb.node_summation(arr.node_input_w)
        means = (summ - meter).mean(axis=1)
        assert means.std() > 0  # "subtle differences ... across MSBs"

    def test_in_phase(self, twin):
        """Meter and summation oscillate in phase at 10 s resolution."""
        arr = twin.builder.build(0.0, 3600.0, 10.0)
        meter = twin.msb.measure(arr.node_input_w)
        summ = twin.msb.node_summation(arr.node_input_w)
        for m in range(twin.topology.n_msbs):
            dm, ds = np.diff(meter[m]), np.diff(summ[m])
            if dm.std() > 0 and ds.std() > 0 and ds.std() > twin.msb.meter_noise_w:
                assert np.corrcoef(dm, ds)[0, 1] > 0.5

    def test_measure_shape(self, twin):
        arr = twin.builder.build(0.0, 100.0, 10.0)
        assert twin.msb.measure(arr.node_input_w).shape == (
            twin.topology.n_msbs, 10,
        )
