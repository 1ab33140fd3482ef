"""Unit tests for the ``python -m repro`` CLI."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

SRC = Path(__file__).resolve().parents[1] / "src"
TINY = ["--nodes", "8", "--jobs", "20", "--days", "0.01"]


class TestCli:
    def test_spec(self, capsys):
        assert main(["spec"]) == 0
        out = capsys.readouterr().out
        assert "4,626" in out
        assert "27,756" in out

    def test_profile_env_prints_a_profile(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert main(["spec"]) == 0
        err = capsys.readouterr().err
        assert "samples @" in err or "no samples collected" in err

    @pytest.mark.parametrize("value", ["fast", "inf", "nan", "-5"])
    def test_profile_env_refuses_a_non_interval(self, monkeypatch, capsys,
                                                value):
        monkeypatch.setenv("REPRO_PROFILE", value)
        assert main(["spec"]) == 1
        out = capsys.readouterr().out
        assert out == ("error: REPRO_PROFILE must be 1 or an interval in ms, "
                       f"got {value!r}\n")

    def test_simulate_small(self, capsys):
        rc = main([
            "simulate", "--nodes", "20", "--jobs", "60", "--days", "0.25",
            "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cluster power" in out
        assert "PUE" in out

    def test_export(self, tmp_path, capsys):
        rc = main([
            "export", "--nodes", "20", "--jobs", "60", "--days", "0.25",
            "--seed", "3", "--output", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert (tmp_path / "out" / "allocations.csv").exists()
        assert (tmp_path / "out" / "job_series" / "manifest.json").exists()

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_compact(self, tmp_path, capsys):
        import numpy as np

        from repro.frame.table import Table
        from repro.parallel.partition import PartitionedDataset

        ds = PartitionedDataset.create(tmp_path / "ds", "d")
        for k in range(6):
            t0 = 100.0 * k
            ds.append(
                Table({"timestamp": np.arange(t0, t0 + 100.0),
                       "power": np.full(100, 2000.0)}),
                t0, t0 + 100.0,
            )
        rc = main(["compact", str(tmp_path / "ds"),
                   "--target-rows", "300"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compacted d: 6 -> 2 shards" in out
        assert "column encodings:" in out
        assert PartitionedDataset(tmp_path / "ds").n_partitions == 2


class TestCliStream:
    ARGS = ["--nodes", "12", "--jobs", "40", "--days", "0.02", "--seed", "3",
            "--minutes", "10", "--no-stats"]

    def test_stream_reports_accounting(self, capsys):
        rc = main(["stream", *self.ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stream accounting:" in out
        assert "0 loss-dropped" in out
        assert "streamed cluster series:" in out

    def test_skew_free_stream_has_zero_late(self, capsys):
        rc = main(["stream", *self.ARGS, "--no-skew"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 late-dropped" in out
        assert "skew-free arrival" in out

    def test_stats_report_lists_nodes(self, capsys):
        rc = main(["stream", *self.ARGS[:-1]])  # keep stats
        assert rc == 0
        out = capsys.readouterr().out
        assert "stream nodes" in out
        assert "watermark accounting:" in out
        assert "coarsen" in out and "aggregate" in out

    def test_checkpoint_pause_and_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "stream.ckpt")
        rc = main(["stream", *self.ARGS, "--max-batches", "10",
                   "--checkpoint", ckpt])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checkpoint saved" in out

        rc = main(["stream", *self.ARGS, "--checkpoint", ckpt])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint" in out
        assert "stream accounting:" in out

    def test_checkpoint_of_another_stream_refused(self, tmp_path, capsys):
        ckpt = str(tmp_path / "stream.ckpt")
        assert main(["stream", *self.ARGS, "--max-batches", "10",
                     "--checkpoint", ckpt]) == 0
        capsys.readouterr()

        other = ["--nodes", "16", "--jobs", "80", "--days", "0.02",
                 "--seed", "9", "--minutes", "4", "--no-skew", "--no-stats"]
        rc = main(["stream", *other, "--checkpoint", ckpt])
        assert rc == 1
        out = capsys.readouterr().out
        assert "error: checkpoint was taken from a replay with seed 3" in out
        assert "resumed from checkpoint" not in out
        assert "streamed cluster series:" not in out

    @pytest.mark.parametrize("damage", [
        "truncated", "empty", "garbage", "list", "stamp-only",
    ])
    def test_unreadable_checkpoint_refused(self, tmp_path, capsys, damage):
        ckpt = tmp_path / "stream.ckpt"
        assert main(["stream", *self.ARGS, "--max-batches", "10",
                     "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        blob = ckpt.read_bytes()
        ckpt.write_bytes({
            "truncated": blob[:len(blob) // 2], "empty": b"",
            "garbage": b"not a pickle", "list": pickle.dumps([1, 2]),
            "stamp-only": pickle.dumps(
                {"format": "repro.stream.checkpoint.v2"}),
        }[damage])

        rc = main(["stream", *self.ARGS, "--checkpoint", str(ckpt)])
        assert rc == 1
        out = capsys.readouterr().out
        error = {
            "list": "checkpoint holds a list, ",
            "stamp-only": "checkpoint lacks ['source', 'nodes', 'stats', "
                          "'flushed']; ",
        }.get(damage, f"unreadable checkpoint {ckpt}: ")
        assert out.startswith("error: " + error)
        assert out.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--cache-dir", None), ("--chunk-seconds", "60"),
        ("--backend", "serial"), ("--workers", "2"),
    ])
    def test_pipeline_flags_refused(self, tmp_path, capsys, flag, value):
        """``stream`` runs no chunked stage, so a pipeline flag is a usage
        error — and leaves no empty cache directory behind."""
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            main(["stream", *self.ARGS, flag, value or str(cache)])
        assert exc.value.code == 2
        assert not cache.exists()
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCliPipelineFlags:
    ARGS = ["--nodes", "16", "--jobs", "50", "--days", "0.25", "--seed", "3"]

    def test_simulate_prints_stage_report(self, capsys):
        rc = main(["simulate", *self.ARGS, "--chunk-seconds", "7200",
                   "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cluster_power" in out
        assert "cache: disabled" in out

    def test_no_stats_suppresses_report(self, capsys):
        rc = main(["simulate", *self.ARGS, "--workers", "1",
                   "--no-stats"])
        assert rc == 0
        assert "cache:" not in capsys.readouterr().out

    def test_bad_backend_rejected(self, capsys):
        """The pipeline picks each stage's pool: no backend is a flag."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", *self.ARGS, "--backend", "threads"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_export_warm_cache_reruns_from_cache(self, tmp_path, capsys):
        base = ["export", *self.ARGS,
                "--chunk-seconds", "10800", "--workers", "1",
                "--cache-dir", str(tmp_path / "cache")]
        assert main([*base, "--output", str(tmp_path / "a")]) == 0
        cold = capsys.readouterr().out
        assert "chunk tasks served from cache" in cold

        assert main([*base, "--output", str(tmp_path / "b")]) == 0
        warm = capsys.readouterr().out
        assert "(100%)" in warm
        # both exports produced identical manifests
        a = (tmp_path / "a" / "job_series" / "manifest.json").read_bytes()
        b = (tmp_path / "b" / "job_series" / "manifest.json").read_bytes()
        assert a == b

    def test_export_refuses_zero_workers(self, tmp_path, capsys):
        rc = main(["export", *self.ARGS, "--workers", "0",
                   "--output", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().out == (
            "error: max_workers must be >= 1, got 0\n")
        assert not (tmp_path / "out").exists()

    def test_chunked_simulate_matches_default(self, capsys):
        assert main(["simulate", *self.ARGS, "--no-stats"]) == 0
        ref = capsys.readouterr().out
        assert main(["simulate", *self.ARGS, "--no-stats",
                     "--chunk-seconds", "3600",
                     "--workers", "1"]) == 0
        assert capsys.readouterr().out == ref


class TestServeCli:
    @pytest.fixture()
    def dataset(self, tmp_path):
        """A tiny archived telemetry dataset; returns its directory."""
        import numpy as np

        from repro.datasets.store import write_partitioned_series
        from repro.frame.table import Table

        rng = np.random.default_rng(11)
        n_nodes, n_t = 6, 600
        table = Table({
            "node": np.repeat(np.arange(n_nodes, dtype=np.int64), n_t),
            "timestamp": np.tile(np.arange(n_t, dtype=np.float64), n_nodes),
            "input_power": rng.uniform(400.0, 2000.0, n_nodes * n_t),
        })
        write_partitioned_series(table, tmp_path, "tel", day_s=200.0)
        return tmp_path / "tel"

    @pytest.fixture()
    def served(self, dataset):
        """The tiny dataset behind a TelemetryServer on a thread."""
        import asyncio
        import threading

        from repro.serve import QueryService, ServiceConfig, TelemetryServer

        service = QueryService(str(dataset), ServiceConfig(workers=2))
        info = {}
        started = threading.Event()

        def runner():
            async def go():
                server = TelemetryServer(service)
                info["host"], info["port"] = await server.start()
                info["loop"] = asyncio.get_running_loop()
                info["quit"] = asyncio.Event()
                started.set()
                await info["quit"].wait()
                await server.stop()

            asyncio.run(go())

        worker = threading.Thread(target=runner)
        worker.start()
        assert started.wait(10)
        yield info["port"]
        info["loop"].call_soon_threadsafe(info["quit"].set)
        worker.join(10)
        service.close()

    def test_query_cold_then_warm(self, served, capsys):
        argv = ["query", "--port", str(served),
                "--t-begin", "0", "--t-end", "400", "--pue", "--head", "2"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cache: miss" in cold
        assert "shards:" in cold and "pruned" in cold
        assert "cluster power:" in cold
        assert "PUE: mean" in cold
        assert "timestamp=" in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache: hit" in warm

    def test_query_stats(self, served, capsys):
        assert main(["query", "--port", str(served),
                     "--t-begin", "0", "--t-end", "100"]) == 0
        capsys.readouterr()
        assert main(["query", "--port", str(served), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "queries: 1" in out
        assert "tenant cli:" in out

    def test_query_error_exit_code(self, served, capsys):
        rc = main(["query", "--port", str(served),
                   "--metric", "flux_capacitor"])
        assert rc == 1
        assert "error:" in capsys.readouterr().out

    def test_query_invalid_before_send(self, served, capsys):
        rc = main(["query", "--port", str(served), "--width", "-5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().out

    @pytest.mark.parametrize("ms", ["inf", "nan", "-1"])
    def test_serve_refuses_unreportable_slow_query_threshold(
        self, tmp_path, capsys, ms
    ):
        # refused before the dataset is even opened, let alone a port bound
        rc = main(["serve", str(tmp_path / "no_such_dataset"),
                   "--slow-query-ms", ms])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith("error: slow_query_s must be finite and >= 0")

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_serve_refuses_worker_count_below_one(self, tmp_path, capsys,
                                                  workers):
        rc = main(["serve", str(tmp_path / "no_such_dataset"),
                   "--workers", workers])
        assert rc == 1
        assert capsys.readouterr().out == (
            f"error: workers must be >= 1, got {workers}\n")

    @pytest.mark.parametrize("argv, says", [
        pytest.param(["serve", None], "no dataset at ", id="serve"),
        pytest.param(["compact", None], "no dataset at ", id="compact"),
        pytest.param(["simulate", *TINY, "--chunk-seconds", "nan"],
                     "chunk_seconds must be finite and > 0, got nan",
                     id="simulate-chunk-nan"),
        pytest.param(["simulate", *TINY, "--chunk-seconds", "inf"],
                     "chunk_seconds must be finite and > 0, got inf",
                     id="simulate-chunk-inf"),
        pytest.param(["stream", *TINY, "--minutes", "1",
                      "--batch-interval", "0"],
                     "batch_interval_s must be positive, got 0.0",
                     id="stream-batch-interval-0"),
        pytest.param(["stream", *TINY, "--minutes", "1",
                      "--batch-interval", "nan"],
                     "batch_interval_s must be positive, got nan",
                     id="stream-batch-interval-nan"),
        pytest.param(["stream", *TINY, "--minutes", "1", "--lateness", "-1"],
                     "lateness_s must be >= 0, got -1.0",
                     id="stream-lateness-negative"),
    ])
    def test_missing_dataset_is_one_error_line(self, tmp_path, capsys,
                                               argv, says):
        """A missing dataset or a refused argument is one ``error:``
        line and exit 1, never a traceback."""
        argv = [str(tmp_path / "no_such_dataset") if a is None else a
                for a in argv]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"error: {says}")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("stats", [False, True], ids=["query", "stats"])
    def test_query_unreachable_server_is_one_error_line(self, capsys, stats):
        import socket

        # bound but not listening: a connect is refused, and the port
        # cannot be handed to anyone else while the test holds it
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
            rc = main(["query", "--port", str(port)]
                      + (["--stats"] if stats else []))
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith(f"error: cannot reach 127.0.0.1:{port}: ")
        assert out.count("\n") == 1

    def test_ready_file_is_replaced_not_rewritten(self, dataset, tmp_path,
                                                  monkeypatch, capsys):
        """A poller never reads a half-written ready file: the new file is
        renamed into place, so a reader of the old one keeps its bytes and
        the path holds either nothing or the whole line."""
        from repro.serve import TelemetryServer

        async def stop_at_once(server):
            await server.stop()

        monkeypatch.setattr(TelemetryServer, "serve_forever", stop_at_once)
        ready = tmp_path / "ready"
        ready.write_text("stale\n")
        before = set(tmp_path.iterdir())
        with open(ready) as old_reader:
            rc = main(["serve", str(dataset), "--port", "0",
                       "--ready-file", str(ready)])
            assert old_reader.read() == "stale\n"
        assert rc == 0
        host, port = ready.read_text().split()
        assert host == "127.0.0.1" and int(port) > 0
        assert set(tmp_path.iterdir()) == before  # no temp file left over
        assert f"on {host}:{port}" in capsys.readouterr().out

    def test_export_telemetry_dataset(self, tmp_path, capsys):
        rc = main([
            "export", "--nodes", "20", "--jobs", "60", "--days", "0.25",
            "--seed", "3", "--output", str(tmp_path / "out"),
            "--telemetry-minutes", "5",
            "--telemetry-shard-seconds", "100",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and "serve with:" in out

        from repro.parallel.partition import PartitionedDataset

        ds = PartitionedDataset(tmp_path / "out" / "telemetry")
        assert ds.n_rows == 20 * 300
        assert ds.n_partitions >= 3  # 300 s of samples in 100 s shards

    def test_export_refuses_zero_telemetry_shard_width(self, tmp_path):
        # a zero shard width would never advance the shard writer's sweep;
        # the timeout turns a hang into a failure.  It is refused before
        # the export, so no dataset is written at all
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "export", *TINY,
             "--output", str(tmp_path / "out"), "--telemetry-minutes", "1",
             "--telemetry-shard-seconds", "0"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.returncode == 1
        assert proc.stdout == ("error: --telemetry-shard-seconds must be "
                               "finite and > 0, got 0.0\n")
        assert proc.stderr == ""
        assert not (tmp_path / "out").exists()
