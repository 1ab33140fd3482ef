"""The streaming runtime: a push-down dataflow tree.

A :class:`StreamGraph` wires a :class:`~repro.stream.source.TelemetryReplaySource`
into a tree of :class:`~repro.stream.operators.Operator` nodes.  Scheduling
is deterministic and single-threaded: each source batch runs through a node
and everything below it, depth-first, before the next batch is pulled — an
operator's outputs reach its children in the order it emitted them, and
nothing waits anywhere between two source pulls.

Per-node throughput/late/lag counters live in a
:class:`~repro.stream.stats.StreamStats` (the streaming analogue of the
chunked pipeline's ``PipelineStats``), and the whole graph — source cursor,
operator state, counters — checkpoints to a plain dict (or a pickle file)
so a stream can resume mid-run and finish with the exact outputs of an
uninterrupted one.  A checkpoint names the replay and the node set it was
taken from; loading it into anything else is a ``ValueError``.
"""

from __future__ import annotations

import pickle
import time as _time

from repro.frame.io import replace_file
from repro.frame.table import Table, concat
from repro.obs import trace
from repro.stream.batch import RecordBatch
from repro.stream.operators import Operator
from repro.stream.source import TelemetryReplaySource
from repro.stream.stats import StreamStats

#: stamp of :meth:`StreamGraph.state_dict`'s layout
_FORMAT = "repro.stream.checkpoint.v2"


class _Node:
    """One operator and the nodes its output feeds."""

    __slots__ = ("name", "op", "downstream", "collect")

    def __init__(self, name: str, op: Operator, collect: bool | None):
        self.name = name
        self.op = op
        self.downstream: list["_Node"] = []
        self.collect = collect


class StreamGraph:
    """A tree of streaming operators fed by a telemetry replay source.

    Build with :meth:`add` (each operator attaches after the source or a
    named upstream node), then :meth:`run`.  Leaf output — and any node
    added with ``collect=True`` — accumulates in :attr:`collected` and is
    retrieved with :meth:`result`.
    """

    def __init__(self, source: TelemetryReplaySource):
        self.source = source
        self.stats = StreamStats()
        # insertion order is parents first: add() needs the upstream node
        self._nodes: dict[str, _Node] = {}
        self._roots: list[_Node] = []
        self.collected: dict[str, list[RecordBatch]] = {}
        self._flushed = False

    # ---------------- construction ----------------

    def add(
        self,
        op: Operator,
        after: str | None = None,
        collect: bool | None = None,
    ) -> str:
        """Attach ``op`` downstream of node ``after`` (or of the source).

        ``collect=None`` collects output only if the node is still a leaf
        when :meth:`run` starts; ``True``/``False`` force it.  Returns the
        node's name: the operator's, suffixed ``2``, ``3``, ... when taken.
        """
        base = op.name
        final = base
        suffix = 2
        while final in self._nodes:
            final = f"{base}{suffix}"
            suffix += 1
        node = _Node(final, op, collect)
        if after is None:
            self._roots.append(node)
        else:
            try:
                self._nodes[after].downstream.append(node)
            except KeyError:
                raise KeyError(
                    f"no upstream node {after!r}; have {list(self._nodes)}"
                ) from None
        self._nodes[final] = node
        return final

    # ---------------- scheduling ----------------

    def _push(self, node: _Node, batch: RecordBatch) -> None:
        """Run ``batch`` through ``node`` and everything below it."""
        st = self.stats.node(node.name)
        st.batches_in += 1
        st.rows_in += batch.n_rows
        t0 = _time.perf_counter()
        outputs = node.op.process(batch)
        st.wall_s += _time.perf_counter() - t0
        self._emit(node, outputs)

    def _emit(self, node: _Node, outputs: list[RecordBatch]) -> None:
        st = self.stats.node(node.name)
        for out in outputs:
            st.batches_out += 1
            st.rows_out += out.n_rows
            if node.collect:
                self.collected.setdefault(node.name, []).append(out)
            for child in node.downstream:
                self._push(child, out)

    def run(
        self, max_batches: int | None = None, flush: bool | None = None
    ) -> StreamStats:
        """Pump the stream.

        Pulls up to ``max_batches`` source batches (all of them if None),
        each one through the whole tree before the next.  ``flush=None``
        flushes operators only when the source is run to exhaustion — so
        ``run(max_batches=k)`` leaves the graph mid-stream, ready to
        checkpoint or keep running.
        """
        if not self._nodes:
            raise RuntimeError("graph has no operators; call add() first")
        for node in self._nodes.values():
            if node.collect is None:
                node.collect = not node.downstream
        with trace.span("stream.run", nodes=len(self._nodes)) as sp:
            pulled = 0
            st = self.stats.node("source")
            while max_batches is None or pulled < max_batches:
                batch = self.source.next_batch()
                if batch is None:
                    break
                pulled += 1
                st.batches_out += 1
                st.rows_out += batch.n_rows
                for root in self._roots:
                    self._push(root, batch)
            if flush or (flush is None and self.source.exhausted):
                with trace.span("stream.flush"):
                    self._flush()
            sp.set(batches=pulled)
        self._sync_op_counters()
        return self.stats

    def _flush(self) -> None:
        if self._flushed:
            return
        for node in self._nodes.values():
            # parents first: what they flush reaches a child before its own
            self._emit(node, node.op.flush())
        self._flushed = True

    def _sync_op_counters(self) -> None:
        st = self.stats.node("source")
        st.rows_in = self.source.rows_total
        st.batches_in = self.source.batches_emitted
        for node in self._nodes.values():
            nst = self.stats.node(node.name)
            for key, value in node.op.stat_counters().items():
                setattr(nst, key, value)

    # ---------------- results ----------------

    def result(self, name: str) -> Table | None:
        """Concatenated output of a collected node (None if it emitted
        nothing)."""
        batches = self.collected.get(name)
        if not batches:
            return None
        if len(batches) == 1:
            return batches[0].table
        return concat([b.table for b in batches])

    # ---------------- checkpointing ----------------

    def state_dict(self) -> dict:
        """Everything needed to resume: source cursor, per-node operator
        state and counters.  Collected output stays with the half that
        produced it — resuming appends, not replays."""
        return {
            "format": _FORMAT,
            "source": self.source.state_dict(),
            "nodes": {name: node.op.state_dict()
                      for name, node in self._nodes.items()},
            "stats": self.stats.state_dict(),
            "flushed": self._flushed,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` into an identically built graph
        over the same replay; anything else is a ``ValueError`` that
        leaves the graph as it was."""
        if state.get("format") != _FORMAT:
            raise ValueError(
                f"checkpoint format is {state.get('format')!r}, this "
                f"runtime reads {_FORMAT!r}; replay from the start"
            )
        lacks = [n for n in state["nodes"] if n not in self._nodes]
        extra = [n for n in self._nodes if n not in state["nodes"]]
        if lacks or extra:
            raise ValueError(
                f"checkpoint topology differs from this graph: the graph "
                f"lacks checkpointed nodes {lacks} and has nodes {extra} "
                "the checkpoint lacks; rebuild the graph the checkpoint "
                "was taken from before loading"
            )
        self.source.load_state(state["source"])
        for name, op_state in state["nodes"].items():
            self._nodes[name].op.load_state(op_state)
        self.stats.load_state(state["stats"])
        self._flushed = state["flushed"]

    def save_checkpoint(self, path) -> None:
        """Pickle :meth:`state_dict` to ``path``, committed whole."""
        replace_file(path, lambda fh: pickle.dump(self.state_dict(), fh))

    def load_checkpoint(self, path) -> None:
        """Restore from :meth:`save_checkpoint` output; a file that does
        not unpickle is a ``ValueError`` naming it."""
        with open(path, "rb") as fh:
            try:
                state = pickle.load(fh)
            except Exception as err:
                raise ValueError(
                    f"unreadable checkpoint {path}: {err}") from err
        self.load_state(state)
