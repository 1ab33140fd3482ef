"""An archived telemetry table, read back, replays batch for batch like
the table it stored, under either codec policy."""

import numpy as np
import pytest

from repro.stream import TelemetryReplaySource


def build_dataset(telemetry, root):
    from repro.parallel.partition import PartitionedDataset

    ds = PartitionedDataset.create(root, "telemetry")
    t = telemetry["timestamp"]
    for lo in np.arange(0.0, float(t.max()) + 1.0, 300.0):
        ds.append(
            telemetry.filter((t >= lo) & (t < lo + 300.0)), lo, lo + 300.0
        )
    return ds


def drain(source):
    batches = []
    while (b := source.next_batch()) is not None:
        batches.append(b)
    return batches


class TestDatasetReplay:
    @pytest.mark.parametrize("mode", [
        pytest.param("auto", id="rcs"), pytest.param("off", id="rcs-raw"),
    ])
    def test_batches_identical_to_table_replay(self, telemetry, tmp_path,
                                               monkeypatch, mode):
        monkeypatch.setenv("REPRO_RCS_COMPRESSION", mode)
        ds = build_dataset(telemetry, tmp_path / mode)
        ref = TelemetryReplaySource(telemetry, skew=False, seed=5)
        got = TelemetryReplaySource(ds.to_table(), skew=False, seed=5)
        a, b = drain(ref), drain(got)
        assert len(a) == len(b)
        for ba, bb in zip(a, b):
            assert ba.arrival_time == bb.arrival_time
            assert ba.table.columns == bb.table.columns
            for c in ba.table.columns:
                assert np.array_equal(ba.table[c], bb.table[c]), c
