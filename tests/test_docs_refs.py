"""README.md and DESIGN.md name only files and modules that exist.

A backticked repo path (a file name with an extension, or a directory
ending in ``/``) must exist relative to the repo root, ``src/repro/`` or
``src/repro/dataplat/``; a backticked ``repro.*`` name must import.  Paths
that only a run creates are listed in :data:`RUN_OUTPUTS`.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BASES = (ROOT, ROOT / "src" / "repro", ROOT / "src" / "repro" / "dataplat")
DOCS = ("README.md", "DESIGN.md")

#: Files a run writes; the docs name them, the repo does not hold them.
RUN_OUTPUTS = {"fuzz_failures/repro.json"}

BACKTICKED = re.compile(r"`([^`\n]+)`")
PATH = re.compile(r"[\w.-]+(?:/[\w.-]+)*/?")
FILE = re.compile(r"\.(?:py|md|json|toml|txt|ya?ml|cfg|sh)$")
NAME = re.compile(r"repro(?:\.\w+)+")


def _spans(doc):
    for number, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
        for match in BACKTICKED.finditer(line):
            yield number, match.group(1)


def _imports(name: str) -> bool:
    """The longest importable module prefix of ``name`` has the rest as
    attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_exist(doc):
    stale = [
        f"{doc}:{number} {span}"
        for number, span in _spans(doc)
        if PATH.fullmatch(span)
        and (FILE.search(span) or span.endswith("/"))
        and span not in RUN_OUTPUTS
        and not any((base / span).exists() for base in BASES)
    ]
    assert not stale, "\n".join(stale)


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_repro_names_import(doc):
    stale = [
        f"{doc}:{number} {span}"
        for number, span in _spans(doc)
        if (name := NAME.match(span)) and not _imports(name.group())
    ]
    assert not stale, "\n".join(stale)
