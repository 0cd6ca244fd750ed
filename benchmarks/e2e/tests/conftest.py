"""Make the harness importable the way ``run.py`` sees it."""

import pathlib
import sys

E2E = pathlib.Path(__file__).resolve().parent.parent
for path in (E2E, E2E.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
