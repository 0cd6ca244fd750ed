"""Entry-point census: which functions of ``src/repro`` does any entry point reach?

The product surface is what the deployed loop's entry points run.  This
script copies ``src/``, ``examples/``, ``scripts/``, ``benchmarks/e2e/``
and ``BENCHMARK.json`` into a temporary directory, runs every entry point
there with a call probe installed, and lists the functions no entry point
called::

    python scripts/census.py            # run the census, print the report
    python scripts/census.py --check    # ... and gate it on the allowlist

The entry points: every ``examples/*.py`` (the quickstart traced), the five
end-to-end workloads at ``--smoke`` untraced and traced, every
``python -m repro`` command at ``--population 1500``, ``fsck.py --demo``
with and without ``--repair``, and the two renderers on what the
quickstart and ``watchtower_drift.py`` leave behind.  The probe is a
``sitecustomize`` module: every Python process the entry points start,
forked pool workers included, records the code objects under ``repro/``
it calls (``sys.setprofile`` call events).  A function is keyed by its
file and the first line of its code object (the first decorator's line).

Dunder methods and ``@property`` getters are exempt.  ``--check`` fails
on an unreached function that no line of ``census_allowlist.txt`` (beside
this file) names, and on an allowlist line that names no function or only
reached ones.  An allowlist line is ``<file>::<qualname>  # reason``; the
pattern may use ``fnmatch`` globs and ``{a,b}`` groups, whose alternatives
are checked one by one.  A ``?`` before the pattern marks a
function that timing decides (a request shed under load): it may be
reached on one run and not the next, so it is never reported as reached.
The census needs at least 2 usable CPUs, the hosts where the process pool
is the default backend.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).resolve().parent / "census_allowlist.txt"
COPIED = ("src", "examples", "scripts", "benchmarks/e2e", "BENCHMARK.json")
POPULATION = 1500
#: Entry points run at once; each may fork a pool of its own.
JOBS = 2
WORKLOADS = ("batch_window", "sql_analytics", "sharded_sql", "ingest_write", "serve_load")

#: The probe every process of an entry point imports at start-up.
PROBE = '''\
import os, sys, threading

_prefix = os.environ["CENSUS_SRC"]
_out = os.path.join(os.environ["CENSUS_OUT"], "calls.txt")
# O_APPEND: forked workers share the descriptor, and each line is one write.
_fd = os.open(_out, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
_seen = set()


def _probe(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if code.co_filename.startswith(_prefix):
                line = f"{code.co_filename[len(_prefix):]}:{code.co_firstlineno}\\n"
                os.write(_fd, line.encode())


sys.setprofile(_probe)
threading.setprofile(_probe)
'''


# ----------------------------------------------------------------------
# The functions of src/repro
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Function:
    path: str  # relative to src/, e.g. "repro/dataplat/table.py"
    qualname: str
    first_line: int  # the code object's first line
    lines: int  # def line to end, nested defs excluded

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def _exempt(node) -> bool:
    name = node.name
    if name.startswith("__") and name.endswith("__"):
        return True
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _inner_defs(node):
    """The defs nested in ``node`` that no other nested def encloses."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _inner_defs(child)


def functions(src: Path = ROOT / "src") -> list[Function]:
    """Every non-exempt ``def`` under ``src/repro``, in file order."""
    found = []
    for file in sorted((src / "repro").rglob("*.py")):
        path = file.relative_to(src).as_posix()

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    nested = sum(n.end_lineno - n.lineno + 1 for n in _inner_defs(child))
                    if not _exempt(child):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        lines = child.end_lineno - child.lineno + 1 - nested
                        found.append(Function(path, qualname, first, lines))
                    walk(child, f"{qualname}.<locals>.")
                else:
                    walk(child, prefix)

        walk(ast.parse(file.read_text(), str(file)), "")
    return found


# ----------------------------------------------------------------------
# The allowlist
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """One allowlist line: a pattern, its brace alternatives, its reason."""

    pattern: str
    alternatives: tuple[str, ...]
    reason: str
    #: ``?``-marked: reached on some runs only (timing), so never stale.
    maybe: bool = False


def _expand(pattern: str) -> list[str]:
    """``a.{b,c}`` -> ``[a.b, a.c]``; groups do not nest."""
    head, brace, rest = pattern.partition("{")
    if not brace:
        return [pattern]
    body, close, tail = rest.partition("}")
    if not close or "{" in body:
        raise ValueError(f"unbalanced braces in {pattern!r}")
    return [p for alt in body.split(",") for p in _expand(head + alt + tail)]


def read_allowlist(path: Path = ALLOWLIST) -> list[Entry]:
    """Every entry; a line is ``[?]<file>::<qualname>  # reason``."""
    entries = []
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pattern, sep, reason = line.partition("#")
        pattern, reason = pattern.strip(), reason.strip()
        if not sep or not reason or "::" not in pattern or " " in pattern:
            raise ValueError(f"{path.name}:{number}: want '<file>::<qualname>  # reason', got {raw!r}")
        maybe = pattern.startswith("?")
        pattern = pattern.removeprefix("?")
        if any(e.pattern == pattern for e in entries):
            raise ValueError(f"{path.name}:{number}: duplicate entry {pattern}")
        entries.append(Entry(pattern, tuple(_expand(pattern)), reason, maybe))
    return entries


def matches(pattern: str, funcs: list[Function]) -> list[Function]:
    return [f for f in funcs if fnmatch.fnmatchcase(f.key, pattern)]


def allowed(f: Function, allow: list[Entry]) -> bool:
    return any(fnmatch.fnmatchcase(f.key, alt) for e in allow for alt in e.alternatives)


# ----------------------------------------------------------------------
# The entry points
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EntryPoint:
    name: str
    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()
    exit_codes: tuple[int, ...] = (0,)


def _commands(main: Path) -> list[str]:
    """The keys of ``repro.__main__.COMMANDS``, read without importing it."""
    for node in ast.parse(main.read_text()).body:
        if isinstance(node, ast.AnnAssign | ast.Assign):
            targets = [node.target] if isinstance(node, ast.AnnAssign) else node.targets
            if any(isinstance(t, ast.Name) and t.id == "COMMANDS" for t in targets):
                return list(ast.literal_eval(node.value))
    raise ValueError(f"no COMMANDS in {main}")


def entry_points(work: Path) -> tuple[list[EntryPoint], list[EntryPoint]]:
    """``(independent, renderers)``: the renderers read what the first
    group leaves in the working directory."""
    py = sys.executable
    first = []
    for example in sorted((work / "examples").glob("*.py")):
        env = (("REPRO_TRACE", "trace.json"),) if example.stem == "quickstart" else ()
        first.append(EntryPoint(f"examples/{example.name}", (py, str(example)), env))
    for workload in WORKLOADS:
        for trace in (0, 1):
            first.append(EntryPoint(
                f"e2e {workload} trace={trace}",
                (py, str(work / "benchmarks/e2e/run.py"), "--workload", workload,
                 "--seed", "7", "--smoke", "--trace", str(trace)),
            ))
    for command in sorted(_commands(work / "src/repro/__main__.py")):
        first.append(EntryPoint(
            f"repro {command}", (py, "-m", "repro", command, "--population", str(POPULATION))
        ))
    fsck = str(work / "scripts/fsck.py")
    first.append(EntryPoint("fsck --demo", (py, fsck, "--demo"), exit_codes=(1,)))
    first.append(EntryPoint("fsck --demo --repair", (py, fsck, "--demo", "--repair")))
    renderers = [
        EntryPoint("trace_report", (py, str(work / "scripts/trace_report.py"), "trace.json")),
        EntryPoint("obs_dashboard", (py, str(work / "scripts/obs_dashboard.py"), "telemetry.json")),
    ]
    return first, renderers


def run_census(work: Path) -> tuple[set[tuple[str, int]], list[str]]:
    """Run every entry point under the probe; returns the reached
    ``(path, first_line)`` keys and the entry points that failed."""
    for part in COPIED:
        if (ROOT / part).is_file():
            shutil.copy(ROOT / part, work / part)
            continue
        shutil.copytree(
            ROOT / part, work / part,
            ignore=shutil.ignore_patterns("__pycache__", "output", "*.pyc"),
        )
    probe = work / "probe"
    probe.mkdir()
    (probe / "sitecustomize.py").write_text(PROBE)
    (work / "logs").mkdir()
    src = work / "src"
    # A switch set in the caller's shell must not change what runs.
    base_env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    base_env.update(
        PYTHONPATH=f"{probe}{os.pathsep}{src}",
        CENSUS_OUT=str(work),
        CENSUS_SRC=f"{src}{os.sep}",
        PYTHONDONTWRITEBYTECODE="1",
    )
    failed = []

    def run(entry: EntryPoint) -> None:
        log = work / "logs" / (entry.name.replace("/", "_").replace(" ", "_") + ".log")
        started = time.perf_counter()
        with log.open("w") as out:
            code = subprocess.run(
                entry.argv, cwd=work, env={**base_env, **dict(entry.env)},
                stdout=out, stderr=subprocess.STDOUT, timeout=1800,
            ).returncode
        status = "ok" if code in entry.exit_codes else f"FAILED (exit {code})"
        print(f"  {entry.name:<34} {time.perf_counter() - started:6.1f} s  {status}", flush=True)
        if code not in entry.exit_codes:
            failed.append(entry.name)
            print("\n".join(log.read_text().splitlines()[-20:]), flush=True)

    first, renderers = entry_points(work)
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        list(pool.map(run, first))
        list(pool.map(run, renderers))
    reached = set()
    calls = work / "calls.txt"
    for line in calls.read_text().splitlines() if calls.exists() else ():
        path, _, first_line = line.rpartition(":")
        reached.add((path, int(first_line)))
    return reached, failed


# ----------------------------------------------------------------------
# Report and check
# ----------------------------------------------------------------------


def check(funcs: list[Function], unreached: list[Function], allow: list[Entry]) -> list[str]:
    """Every complaint ``--check`` fails on."""
    problems = [
        f"unreached and not on the allowlist: {f.key} ({f.lines} lines)"
        for f in unreached
        if not allowed(f, allow)
    ]
    unreached_keys = {f.key for f in unreached}
    for entry in allow:
        for alt in entry.alternatives:
            named = matches(alt, funcs)
            if not named:
                problems.append(f"allowlist names no function: {alt}")
            elif not entry.maybe and not any(f.key in unreached_keys for f in named):
                problems.append(f"allowlist entry is reached now: {alt}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="fail on an allowlist mismatch")
    args = parser.parse_args(argv)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        # One CPU makes the serial backend the default, so the pool paths
        # would read as unreached and the census would depend on the host.
        print("census: needs at least 2 usable CPUs")
        return 2
    funcs = functions()
    allow = read_allowlist() if args.check else []
    print(f"census: {len(funcs)} functions under src/repro; running the entry points ...")
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        reached, failed = run_census(Path(tmp))
    if not reached:
        print("census: the probe recorded no call under the copied src/repro")
        return 1
    unreached = [f for f in funcs if (f.path, f.first_line) not in reached]
    total = sum(f.lines for f in funcs)
    lost = sum(f.lines for f in unreached)
    print(f"\nunreached functions ({time.perf_counter() - started:.0f} s):")
    for f in unreached:
        mark = "" if not args.check or allowed(f, allow) else "  <- not allowlisted"
        print(f"  {f.key} ({f.lines}){mark}")
    print(
        f"\n{len(unreached)} of {len(funcs)} functions, {lost} of {total} function lines "
        f"({100 * lost / total:.1f} %), reached by no entry point"
    )
    if failed:
        print(f"entry points that failed: {', '.join(failed)}")
        return 1
    if args.check:
        problems = check(funcs, unreached, allow)
        for problem in problems:
            print(f"census: {problem}")
        if problems:
            return 1
        print(f"census: every unreached function is on the allowlist ({len(allow)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
