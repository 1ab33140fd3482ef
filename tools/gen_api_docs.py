"""Generate docs/API.md: every public symbol with its signature and the
first line of its docstring.

Run:  python tools/gen_api_docs.py           (rewrite docs/API.md)
      python tools/gen_api_docs.py --check   (exit 1 with a diff if stale)
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

API_MD = ROOT / "docs" / "API.md"

PACKAGES = [
    "repro",
    "repro.config",
    "repro.frame",
    "repro.parallel",
    "repro.machine",
    "repro.workload",
    "repro.cooling",
    "repro.failures",
    "repro.telemetry",
    "repro.core",
    "repro.datasets",
    "repro.plan",
    "repro.pipeline",
    "repro.stream",
    "repro.serve",
    "repro.obs",
]


#: hand-written prose injected under a package's generated section
PROSE = {
    "repro.pipeline": """\
### Pipeline & caching

`repro.pipeline` runs the twin and its dataset derivations **out of
core**: the horizon is split into `chunk_seconds`-wide time windows, each
window is one task fanned out through `repro.parallel.Executor`
(`serial` / `threads` / `processes`), and chunked results are
**bit-identical** to the single-pass path (asserted by
`tests/pipeline/test_equivalence.py`).

With a `cache_dir`, every chunk artifact is stored **content-addressed**:
the key is a SHA-256 over the canonical form of
`(format version, simulation spec, stage name, stage params, chunk id)`,
laid out git-style as `<first 2 hex>/<hash>.npz` (atomic writes; torn
entries read as misses).  A re-run with the same spec serves chunks from
the cache and reports it in the `PipelineStats` table.

CLI integration (`python -m repro simulate|export`):

| flag | meaning |
|---|---|
| `--chunk-seconds S` | shard width (default 86400, one day) |
| `--cache-dir DIR` | enable the artifact cache |
| `--backend {serial,threads,processes}` | chunk fan-out backend |
| `--workers N` | executor pool size, at least 1 (default: one per core, capped by `REPRO_MAX_WORKERS`) |
| `--no-stats` | suppress the per-stage counter report |
""",
    "repro.stream": """\
### Streaming engine

`repro.stream` is the live counterpart of the batch analyses: a
`TelemetryReplaySource` replays archived telemetry through the modeled
fan-in path (per-hop delays, out-of-order arrival, loss gaps), and
incremental operators finalize event-time windows as a bounded-lateness
watermark passes them.  Scheduling is single-threaded and push-down:
each source batch runs through the whole operator tree before the next
is pulled.  The whole graph (source cursor, operator state, counters)
checkpoints to a plain dict or pickle file, and loads only into the
replay and node set it was taken from (`ValueError` naming what differs).

Two guarantees, both asserted by `tests/stream/`:

* **bit-identity** — on skew-free, loss-free input, streamed
  coarsen/aggregate/edge/PUE outputs equal the batch
  `repro.core`/`repro.frame` results exactly (same kernels, same rows,
  same order);
* **exact accounting** — with skew or loss, every sample the stream
  does not fold in is counted (`late`, `nan`, `loss_dropped`), and
  `rows replayed == rows in windows + late + NaN-dropped` always holds.

CLI integration (`python -m repro stream`):

| flag | meaning |
|---|---|
| `--minutes M` | length of telemetry to replay (default 30) |
| `--batch-interval S` | source flush interval in arrival seconds |
| `--no-skew` | zero the fan-in delays (arrival = event time) |
| `--lateness S` | watermark lateness bound (default 8 s) |
| `--max-batches N` | pause mid-stream after N source batches |
| `--checkpoint PATH` | resume from / save a mid-stream checkpoint |
""",
    "repro.serve": """\
### Query service

`repro.serve` serves an archived `PartitionedDataset` to many tenants
at once.  A declarative `Query` is validated and canonicalized (its
SHA-256 fingerprint is spelling-invariant), planned into the storage
pushdowns (zone-map shard pruning + column projection), and executed on
an asyncio loop that offloads shard reads to a worker pool.  `Query` and
the plan live in `repro.plan`, the same code `Pipeline.telemetry_series`
runs over the same archive; a `width` that does not divide the shard
edges is an `error` response.

Load management is explicit: a byte-capped in-memory LRU **result
cache**, **single-flight** collapse of concurrent identical queries, and
**admission control** (bounded in-flight slots, bounded FIFO queue,
per-tenant quotas) that rejects — never hangs — overload.  Transport is newline-delimited JSON over TCP.

CLI integration:

| command | meaning |
|---|---|
| `python -m repro export ... --telemetry-minutes M` | archive raw telemetry for serving |
| `python -m repro serve DATASET [--port P] [--max-inflight N] [--cache-mb M]` | run the TCP server |
| `python -m repro query --port P [--t-begin S --t-end S] [--pue] [--stats]` | one query / the service report |
""",
    "repro.obs": """\
### Observability

`repro.obs` is the zero-dependency observability layer shared by every
subsystem: structured **tracing** (`trace.span(...)` context managers
whose parent/child nesting survives process pools and the TCP boundary
via explicit `SpanContext` propagation), one **counter record**
(`Counters`: plain attributes named by `FIELDS`; `CounterTable`: one
record per name, owned by the pipeline, stream graph or service it
counts for — `PipelineStats`, `StreamStats` and `ServiceStats` are
built on them), a **sampling profiler** (`REPRO_PROFILE=1`), and
NDJSON **event logs** (the serve slow-query log).  Tracing off is a single branch per call.

Environment and CLI integration:

| knob | meaning |
|---|---|
| `REPRO_TRACE=FILE` (or `1`: `repro-trace.jsonl`) | capture spans from any `python -m repro ...` run |
| `REPRO_PROFILE=1` (or an interval in ms; anything else is an error) | print a sampled self-time profile on exit |
| `python -m repro trace FILE [--depth N] [--chrome OUT]` | flame summary / Chrome `trace_event` export |
| `python -m repro serve ... --slow-query-ms N --slow-query-log FILE` | NDJSON record per slow query |
| `python tools/check_trace.py FILE --require-span ... --require-child P:C` | validate a captured trace (CI gate) |
""",
}


def summarize(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n")[0].replace("\n", " ").strip()
    return first[:160] + ("..." if len(first) > 160 else "")


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def own_names(mod) -> list[str]:
    """Public names a module without ``__all__`` defines itself: objects
    whose ``__module__`` is the module, and plain constants (which carry
    none) — not what it imports (``dataclass``, ``field``, the
    ``annotations`` feature)."""
    return [
        n for n in dir(mod)
        if not n.startswith("_")
        and getattr(getattr(mod, n), "__module__", mod.__name__) == mod.__name__
    ]


def document_module(name: str) -> list[str]:
    mod = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    mod_doc = summarize(mod)
    if mod_doc:
        lines += [mod_doc, ""]
    if name in PROSE:
        lines += [PROSE[name], ""]
    public = getattr(mod, "__all__", None)
    if public is None:
        public = own_names(mod)
    for sym in public:
        obj = getattr(mod, sym, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        if inspect.isclass(obj):
            lines.append(f"- **class `{sym}`** — {summarize(obj)}")
            for mname, meth in inspect.getmembers(obj, inspect.isfunction):
                if mname.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                lines.append(
                    f"  - `{mname}{signature_of(meth)}` — {summarize(meth)}"
                )
        elif callable(obj):
            lines.append(f"- `{sym}{signature_of(obj)}` — {summarize(obj)}")
        else:
            lines.append(f"- `{sym}` — constant ({type(obj).__name__})")
    lines.append("")
    return lines


def render() -> str:
    out = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py`; regenerate after",
        "changing any public signature.",
        "",
    ]
    for name in PACKAGES:
        out.extend(document_module(name))
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 with a unified diff "
                             "if docs/API.md is not what would be written")
    args = parser.parse_args(argv)
    text = render()
    if not args.check:
        API_MD.parent.mkdir(exist_ok=True)
        API_MD.write_text(text)
        print(f"wrote {API_MD} ({text.count(chr(10))} lines)")
        return 0
    current = API_MD.read_text() if API_MD.exists() else ""
    if current == text:
        print(f"{API_MD} is up to date")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        current.splitlines(keepends=True), text.splitlines(keepends=True),
        "docs/API.md", "docs/API.md (regenerated)"))
    print("gen_api_docs: docs/API.md is stale; run tools/gen_api_docs.py")
    return 1


if __name__ == "__main__":
    sys.exit(main())
