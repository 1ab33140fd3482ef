"""The query plan's answers and keys equal the pinned golden.

``gen_plan_golden.py`` (next to this file) says what is pinned and how to
regenerate it.  A difference here means a plan answer, a fingerprint, a
fragment key or a pipeline artifact key changed — the named entry says
which query on which archive.
"""

import json

from tests.plan.gen_plan_golden import GOLDEN, compute


def test_plan_answers_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = compute()
    assert list(got) == list(golden)
    for archive, want in golden.items():
        if not isinstance(want, dict):
            assert got[archive] == want, archive
            continue
        assert list(got[archive]) == list(want), archive
        for label, entry in want.items():
            assert got[archive][label] == entry, (archive, label)
