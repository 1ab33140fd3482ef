"""The full telemetry data path, end to end (Sections 2-3).

Physics -> 1 Hz out-of-band sampling (noise, quantization, collector
delay) -> lossless codec accounting -> day-sharded storage -> parallel
10-second coarsening -> allocation interval-join -> job-wise series ->
job summaries.  This is the paper's Dask pipeline on the twin, shard by
shard, with nothing held in memory at full resolution: the coarsening is
the query plan every other surface runs (``Pipeline.telemetry_series``).

Run:  python examples/telemetry_pipeline.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import (
    cluster_power_series,
    job_power_series,
    job_power_summary,
    tag_allocations,
)
from repro.core.report import fmt_si, render_table
from repro.datasets import SimulationSpec, simulate_twin
from repro.frame.encodings import encode_column
from repro.frame.table import concat
from repro.parallel import PartitionedDataset
from repro.pipeline import Pipeline, PipelineConfig
from repro.plan import Query


def main() -> None:
    twin = simulate_twin(SimulationSpec(
        n_nodes=90, n_jobs=600, horizon_s=86_400.0, seed=5,
    ))
    work = Path(tempfile.mkdtemp(prefix="repro-pipeline-"))
    print(f"workspace: {work}")

    # --- stage 1: collect 1 Hz telemetry into 30-minute shards ---
    span = 1800.0
    n_shards = 6
    raw = PartitionedDataset.create(work / "raw", "openbmc-1hz")
    sampler = twin.sampler()
    t0 = time.perf_counter()
    carry = None
    for i in range(n_shards):
        lo = 6 * 3600.0 + i * span
        arr = twin.builder.build(lo, lo + span, 1.0)
        tel = sampler.sample(arr)
        if carry is not None:
            tel = concat([carry, tel])
        # collector delay stamps the last samples past the shard edge:
        # file them with the next shard, so no 10 s window has rows in two
        # shards (the query plan refuses to answer such a window twice)
        late = tel["timestamp"] >= lo + span
        carry = tel.filter(late)
        raw.append(tel.filter(~late), lo, lo + span)
    raw.append(carry, lo + span, lo + 2 * span)  # the in-flight tail
    print(f"collected {raw.n_rows:,} 1 Hz rows in {raw.n_partitions} shards "
          f"({fmt_si(raw.n_bytes, 'B')} compressed on disk, "
          f"{time.perf_counter() - t0:.1f}s)")

    # codec accounting for one channel (the Section 2 '1 MB/s' claim)
    node0 = raw.read(0)
    ch = node0["input_power"][node0["node"] == 0]
    ratio = ch.nbytes / len(encode_column(ch)[1])
    print(f"per-channel lossless codec: {ratio:.1f}x vs raw float64")

    # --- stage 2: parallel 10 s coarsening (Dataset 0) ---
    pipe = Pipeline(twin, PipelineConfig(backend="threads", max_workers=4))
    t0 = time.perf_counter()
    coarse = pipe.telemetry_series(
        raw, Query(level="node", metrics=("input_power",))
    )
    print(f"coarsened to {coarse.n_rows:,} 10 s windows "
          f"({time.perf_counter() - t0:.1f}s with "
          f"{pipe.executor.max_workers} threads)")

    # --- stage 3: cluster series (Dataset 1) + job join (Dataset 3) ---
    cluster = cluster_power_series(coarse)
    tagged = tag_allocations(coarse, twin.schedule.node_allocations)
    job_series = job_power_series(tagged)
    summary = job_power_summary(job_series)

    rows = [
        ["raw 1 Hz rows", f"{raw.n_rows:,}"],
        ["10 s windows (Dataset 0)", f"{coarse.n_rows:,}"],
        ["cluster series rows (Dataset 1)", f"{cluster.n_rows:,}"],
        ["job series rows (Dataset 3)", f"{job_series.n_rows:,}"],
        ["jobs summarized (Dataset 5)", f"{summary.n_rows:,}"],
        ["peak cluster power", fmt_si(float(cluster["sum_inp"].max()), "W")],
    ]
    print()
    print(render_table(["stage", "value"], rows, title="pipeline summary"))


if __name__ == "__main__":
    main()
