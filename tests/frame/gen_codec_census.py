"""Generator of ``tests/golden/codec_census.json``: which codec each column
of five seeded tables elects, and what it costs in bytes.

The tables are the shapes the archive holds:

* ``archive_node_major`` — one 300 s shard of a 72-node twin's 1 Hz
  telemetry with per-GPU columns, in the sampler's row order, as the
  ledger's ``archive_cycle`` ingests it;
* ``archive_time_sorted`` — the same rows stably sorted by time, as
  ``compact`` rewrites them;
* ``serve_compacted`` — the first compacted (two 300 s partitions wide)
  shard of the same twin's telemetry without per-GPU columns, as the
  ledger's ``serve_mix`` serves it;
* ``job_series`` and ``cluster_power`` — the two series ``repro export``
  writes, from a 24-node x 6 h twin.

For each column it records the elected codec, its frame tag, the stored
(framed) bytes and the unframed payload bytes; a column no codec shrinks
reads ``raw`` / ``none``.  Each table also carries its row count and
totals.  The codec policy is pinned to ``auto``.  Every encoded column is
decoded back through ``decode_column`` and must equal its source byte
for byte, so a census run also checks the decoders on these shapes.

Written before a change to the codecs or their framing and checked after
it, the diff of this file is that change's bytes table.

    PYTHONPATH=src python tests/frame/gen_codec_census.py          # rewrite
    PYTHONPATH=src python tests/frame/gen_codec_census.py --check  # diff
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import zlib
from pathlib import Path
from unittest import mock

import numpy as np

from repro.datasets import SimulationSpec, simulate_twin
from repro.datasets.store import write_partitioned_series
from repro.frame import Table
from repro.frame.encodings import decode_column, encode_column
from repro.pipeline import Pipeline, PipelineConfig

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "codec_census.json"

TELEMETRY = SimulationSpec(n_nodes=72, n_jobs=288, horizon_s=600.0, seed=1)
SERIES = SimulationSpec(n_nodes=24, n_jobs=96, horizon_s=6 * 3600.0, seed=1)
SHARD_S = 300.0


def census(table: Table) -> dict:
    columns, raw = {}, 0
    for name in table.columns:
        col = np.ascontiguousarray(table[name])
        raw += col.nbytes
        enc = encode_column(col)
        if enc is None:
            entry = {"codec": "raw", "frame": "none", "bytes": col.nbytes,
                     "payload": col.nbytes}
        else:
            meta, framed = enc
            got = decode_column(meta, framed, col.dtype, len(col))
            if got.tobytes() != col.tobytes():
                raise AssertionError(
                    f"column {name!r}: decode_column does not give back "
                    f"the {meta['codec']!r}-encoded column"
                )
            payload = (zlib.decompress(framed) if meta["frame"] == "zlib"
                       else framed)
            entry = {"codec": meta["codec"], "frame": meta["frame"],
                     "bytes": len(framed), "payload": len(payload)}
        columns[name] = {"dtype": col.dtype.str, **entry}
    stored = sum(c["bytes"] for c in columns.values())
    return {"rows": table.n_rows, "raw_bytes": raw, "bytes": stored,
            "columns": columns}


def telemetry_tables() -> dict[str, Table]:
    twin = simulate_twin(TELEMETRY)
    horizon = TELEMETRY.horizon_s
    per_gpu = twin.sampler().sample(
        twin.builder.build(0.0, horizon, 1.0, per_gpu=True))
    shard = per_gpu.filter(per_gpu["timestamp"] < SHARD_S)
    plain = twin.sampler().sample(
        twin.builder.build(0.0, horizon, 1.0, per_gpu=False))
    with tempfile.TemporaryDirectory() as tmp:
        ds = write_partitioned_series(plain, tmp, "telemetry", day_s=SHARD_S)
        ds.compact(target_rows=int(2 * TELEMETRY.n_nodes * SHARD_S * 0.98))
        compacted = ds.read(0)
    return {"archive_node_major": shard,
            "archive_time_sorted": shard.sort("timestamp"),
            "serve_compacted": compacted}


def series_tables() -> dict[str, Table]:
    pipe = Pipeline(simulate_twin(SERIES), PipelineConfig(backend="serial"))
    t, p = pipe.cluster_power()
    return {"job_series": pipe.job_series(),
            "cluster_power": Table({"timestamp": t, "sum_inp": p})}


def compute() -> dict:
    with mock.patch.dict(os.environ, {"REPRO_RCS_COMPRESSION": "auto"}):
        tables = {**telemetry_tables(), **series_tables()}
        return {name: census(table) for name, table in tables.items()}


def main(argv) -> int:
    text = json.dumps(compute(), indent=1) + "\n"
    if "--check" in argv:
        if GOLDEN.read_text() != text:
            print(f"{GOLDEN} differs from what this tree emits")
            return 1
        print(f"{GOLDEN} matches")
        return 0
    GOLDEN.write_text(text)
    print(f"wrote {GOLDEN} ({len(text):,} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
