"""Every batch the standard stream graph emits equals the pinned golden.

``gen_stream_batches.py`` (next to this file) says what is pinned and how
to regenerate it.  A difference here means an operator or the runtime
changed *when* it emits, *what* it stamps or *which* rows it calls late —
even if the concatenated final tables still agree.
"""

import json

import pytest

from gen_stream_batches import GOLDEN, compute


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
