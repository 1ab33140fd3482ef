"""Every column's elected codec and byte counts equal the pinned census.

``gen_codec_census.py`` (next to this file) says what is pinned and how to
regenerate it.  A difference here means a codec, its election or its
framing changed the bytes of a column — the named entry says which.
"""

import json

from tests.frame.gen_codec_census import GOLDEN, compute


def test_codec_census_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = compute()
    assert list(got) == list(golden)
    for table, want in golden.items():
        assert got[table] == want, table
