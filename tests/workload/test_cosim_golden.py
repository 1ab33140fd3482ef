"""The schedule → allocation → watts chain equals the pinned golden.

``gen_cosim_golden.py`` (next to this file) says what is pinned and how to
regenerate it.  A difference here means the scheduler core, the painter,
the allocation → watts kernel or ``datasets.generate``'s reductions changed
a bit somewhere — the named entry says which array.
"""

import json

from tests.workload.gen_cosim_golden import GOLDEN, compute


def test_cosim_arrays_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = compute()
    assert list(got) == list(golden)
    for key, want in golden.items():
        assert got[key] == want, key
