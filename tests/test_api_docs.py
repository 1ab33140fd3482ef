"""``tools/gen_api_docs.py`` documents this package, reproducibly."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "gen_api_docs",
    Path(__file__).resolve().parents[1] / "tools" / "gen_api_docs.py",
)
gen_api_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_api_docs)


def test_generation_is_reproducible():
    first = gen_api_docs.render()
    assert gen_api_docs.render() == first
    # an object repr with its address is a new diff on every run
    assert "0x" not in first


def test_only_the_modules_own_names_are_documented():
    config = "\n".join(gen_api_docs.document_module("repro.config"))
    assert "`SUMMIT`" in config and "`cap_workers(" in config
    for imported in ("`dataclass(", "`field(", "`replace(", "`annotations`"):
        assert imported not in config
