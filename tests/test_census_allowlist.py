"""The census allowlist parses and names only functions and parameters
that exist.

``scripts/census.py --check`` (a CI job; it runs every entry point, a few
minutes) fails on an unreached function, or a defaulted parameter no entry
point varies, missing from ``scripts/census_allowlist.txt``.  This cheap
check keeps the list itself honest between census runs: every line has a
reason, every entry or glob still names at least one function or
parameter under ``src/repro``, and both kinds of entry can only shrink.
"""

import importlib.util
import os
import subprocess
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


#: Caps on the allowlist's function and parameter entries: lower them as
#: entries go, never raise them.
FUNCTION_ENTRIES = 32
PARAMETER_ENTRIES = 46


def test_every_entry_names_an_existing_function(census):
    allow = census.read_allowlist()
    funcs, params = census.scan()
    assert sum(not e.parameter for e in allow) <= FUNCTION_ENTRIES
    assert sum(e.parameter for e in allow) <= PARAMETER_ENTRIES
    stale = [
        alt
        for entry in allow
        for alt in entry.alternatives
        if not census.matches(alt, params if entry.parameter else funcs)
    ]
    assert not stale, stale


def test_parameter_entry_expands(census, tmp_path):
    listed = tmp_path / "allow.txt"
    listed.write_text("repro/x.py::A.{f,g}(a,b)  # why\n")
    (entry,) = census.read_allowlist(listed)
    assert entry.parameter and not entry.maybe
    assert entry.alternatives == (
        "repro/x.py::A.f(a)", "repro/x.py::A.f(b)",
        "repro/x.py::A.g(a)", "repro/x.py::A.g(b)",
    )
    listed.write_text("repro/x.py::A.f(a,)  # empty parameter name\n")
    with pytest.raises(ValueError, match="param"):
        census.read_allowlist(listed)


def _synthetic(census, tmp_path, allowlist: str):
    """A one-file tree, and the allowlist ``check`` complaints for a probe
    record that reached ``f`` and passed ``b`` a non-default value."""
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "m.py").write_text(
        "def f(x, a=1, b=None, *, c=_SENTINEL):\n    return x\n"
    )
    funcs, params = census.scan(src)
    reached, varied = census.read_calls("repro/m.py:1\nrepro/m.py:1:b\n")
    unvaried = census.idle(params, reached, varied)
    listed = tmp_path / "allow.txt"
    listed.write_text(allowlist)
    allow = census.read_allowlist(listed)
    return unvaried, census.check(funcs, [], allow, params, unvaried)


def test_unlisted_idle_parameter_fails_and_varied_entry_is_stale(census, tmp_path):
    unvaried, problems = _synthetic(
        census, tmp_path, "repro/m.py::f(a,b)  # why\n"
    )
    assert [p.key for p in unvaried] == ["repro/m.py::f(a)", "repro/m.py::f(c)"]
    assert problems == [
        "never varied by an entry point and not on the allowlist: repro/m.py::f(c)",
        "allowlist entry is varied now (or its function unreached): repro/m.py::f(b)",
    ]


def test_entry_naming_a_missing_function_or_parameter_is_rejected(census, tmp_path):
    _, problems = _synthetic(
        census, tmp_path,
        "repro/m.py::f(a,c,z)  # why\nrepro/m.py::g(a)  # why\n",
    )
    assert problems == [
        "allowlist names no parameter: repro/m.py::f(z)",
        "allowlist names no parameter: repro/m.py::g(a)",
    ]


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
    funcs = {f.key: f for f in census.scan()[0]}
    assert "repro/dataplat/table.py::Table.group_by" in funcs
    # Dunder methods and @property getters are exempt by rule.
    assert "repro/dataplat/table.py::Table.__init__" not in funcs
    assert "repro/dataplat/table.py::Table.num_rows" not in funcs


def test_probe_records_only_values_other_than_the_default(census, tmp_path):
    """The probe compares by identity first (a sentinel's repr carries its
    address), then by equal value of the same type; a generator's later
    resumptions, whose locals have moved on, are not calls."""
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "__init__.py").write_text("")
    (src / "repro" / "m.py").write_text(
        "_AUTO = object()\n"
        "def f(a=1, b=_AUTO, c=(1, 2), *, d=None):\n"
        "    return a\n"
        "def g(x=3):\n"
        "    yield x\n"
        "    x = 5\n"
        "    yield x\n"
    )
    _, params = census.scan(src)
    (tmp_path / "defaulted.txt").write_text(
        "\n".join({f"{p.path}:{p.first_line}" for p in params})
    )
    probe = tmp_path / "probe"
    probe.mkdir()
    (probe / "sitecustomize.py").write_text(census.PROBE)
    driver = (
        "import repro.m as m\n"
        "m.f(); m.f(1, m._AUTO, (1, 2), d=None); m.f(b=m._AUTO, d=0)\n"
        "list(m.g()); list(m.g(3))\n"
    )
    subprocess.run(
        [sys.executable, "-c", driver],
        env={
            **os.environ,
            "PYTHONPATH": f"{probe}{os.pathsep}{src}",
            "CENSUS_OUT": str(tmp_path),
            "CENSUS_SRC": f"{src}{os.sep}",
        },
        check=True,
    )
    reached, varied = census.read_calls((tmp_path / "calls.txt").read_text())
    assert {("repro/m.py", 2), ("repro/m.py", 4)} <= reached
    assert varied == {("repro/m.py", 2, "d")}
    assert [p.key for p in census.idle(params, reached, varied)] == [
        "repro/m.py::f(a)", "repro/m.py::f(b)", "repro/m.py::f(c)", "repro/m.py::g(x)",
    ]
