"""Every batch the standard stream graph emits equals the pinned golden.

``gen_stream_batches.py`` (next to this file) says what is pinned and how
to regenerate it.  A difference here means an operator or the runtime
changed *when* it emits, *what* it stamps or *which* rows it calls late —
even if the concatenated final tables still agree.
"""

import json
import math
import pickle

import numpy as np
import pytest

from gen_stream_batches import (
    CHECKPOINT,
    CHECKPOINT_CONFIG,
    GOLDEN,
    build_graph,
    compute,
    config_key,
    edge_threshold,
    paused_graph,
    summarize,
    twin_telemetry,
)


@pytest.mark.parametrize("resume", [False, True],
                         ids=["straight", "resumed"])
def test_emitted_batches_match_golden(resume):
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(compute(resume)))
    assert list(got) == list(golden)
    for config, nodes in golden.items():
        for name, want in nodes.items():
            have = got[config][name]
            assert have["counters"] == want["counters"], (config, name)
            assert have["batches"] == want["batches"], (config, name)


def assert_same_state(got, want, path="state") -> None:
    """Equal plain-Python / numpy structures, arrays byte for byte."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for k in want:
            assert_same_state(got[k], want[k], f"{path}[{k!r}]")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_state(g, w, f"{path}[{i}]")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), path
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), path
    else:
        assert got == want, path


def test_committed_checkpoint_resumes_into_the_golden():
    """``stream_checkpoint_v2.pkl`` was pickled mid-stream by the runtime
    whose windowed buffer held its open rows as one table.  This runtime
    checkpoints the same operator state at that point, and resumed from
    the file it emits exactly the golden's batches and counters."""
    telemetry = twin_telemetry()
    threshold_w = edge_threshold(telemetry)
    first = paused_graph(telemetry, threshold_w)
    state = pickle.loads(CHECKPOINT.read_bytes())
    assert state["nodes"]["coarsen"]["rows"] is not None
    assert_same_state(first.state_dict()["nodes"], state["nodes"])

    second = build_graph(telemetry, threshold_w, *CHECKPOINT_CONFIG)
    second.load_state(state)
    second.run()
    golden = json.loads(GOLDEN.read_text())[config_key(*CHECKPOINT_CONFIG)]
    assert json.loads(json.dumps(summarize([first, second]))) == golden
