"""The census allowlist parses and names only functions that exist.

``scripts/census.py --check`` (a CI job; it runs every entry point, a few
minutes) fails on an unreached function missing from
``scripts/census_allowlist.txt``.  This cheap check keeps the list itself
honest between census runs: every line has a reason, and every entry or
glob still names at least one function under ``src/repro``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "census.py"


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["census"] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_entry_names_an_existing_function(census):
    allow = census.read_allowlist()
    funcs = census.functions()
    assert len(allow) <= 32
    stale = [
        alt
        for entry in allow
        for alt in entry.alternatives
        if not census.matches(alt, funcs)
    ]
    assert not stale, stale


def test_brace_groups_expand(census, tmp_path):
    listed = tmp_path / "allow.txt"
    listed.write_text("?repro/x.py::A.{b,c}  # why\n")
    (entry,) = census.read_allowlist(listed)
    assert entry.alternatives == ("repro/x.py::A.b", "repro/x.py::A.c")
    assert entry.maybe and entry.reason == "why"


def test_malformed_line_rejected(census, tmp_path):
    bad = tmp_path / "allow.txt"
    bad.write_text("repro/ml/tree.py::DecisionTree.grow\n")  # no reason
    with pytest.raises(ValueError, match="reason"):
        census.read_allowlist(bad)


def test_exemptions_and_keys(census):
    funcs = {f.key: f for f in census.functions()}
    assert "repro/dataplat/table.py::Table.group_by" in funcs
    # Dunder methods and @property getters are exempt by rule.
    assert "repro/dataplat/table.py::Table.__init__" not in funcs
    assert "repro/dataplat/table.py::Table.num_rows" not in funcs
