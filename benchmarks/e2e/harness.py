"""Plumbing shared by the five end-to-end workloads.

Everything here is benchmark-side: the environment scrub and stamp, the
in-memory span recorder behind the traced run, the percentile rule,
operation/oracle accounting, and the round loop that turns ``--seconds``
into a number of repetitions.  Nothing in this file imports ``repro``;
the workloads do, through public names only.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
#: Traces and summaries land here (ignored by git).
OUTPUT_DIR = HERE / "output"

#: Span around each traced round; the layer-share table is taken under it.
ROUND_SPAN = "bench.round"

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reportable only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class HarnessError(Exception):
    """The benchmark itself is inconsistent (not a program failure)."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def scrub_environment(environ=None) -> list[str]:
    """Drop every ``REPRO_*`` switch so the numbers are what ships."""
    environ = os.environ if environ is None else environ
    dropped = sorted(k for k in environ if k.startswith("REPRO_"))
    for key in dropped:
        del environ[key]
    return dropped


def add_src_to_path() -> None:
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment_stamp() -> dict:
    """Where and on what a result was taken; stamped into every result."""
    sha = _git("rev-parse", "--short", "HEAD")
    status = _git("status", "--porcelain") if sha is not None else None
    affinity = (
        sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha if sha is not None else "unknown",
        "dirty_tree": bool(status) if status is not None else None,
    }


def peak_rss_mib(include_children: bool = False) -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    #: Share of the parent's median a metric may worsen by (end-to-end only).
    bound: float | None = None


@dataclass(frozen=True)
class BenchmarkSpec:
    """The declared contract: the single source of names, units, bounds."""

    workloads: dict[str, str]
    end_to_end: dict[str, MetricSpec]
    per_layer: dict[str, MetricSpec]
    run_seconds: int

    @classmethod
    def load(cls, path: pathlib.Path = SPEC_PATH) -> "BenchmarkSpec":
        doc = json.loads(path.read_text(encoding="utf-8"))
        return cls(
            workloads={w["name"]: w["why"] for w in doc["workloads"]},
            end_to_end={
                m["name"]: MetricSpec(m["name"], m["unit"], m["bound"])
                for m in doc["end_to_end"]
            },
            per_layer={
                m["name"]: MetricSpec(m["name"], m["unit"])
                for m in doc["per_layer"]
            },
            run_seconds=int(doc["run_seconds"]),
        )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    workload: str
    start: float
    end: float = 0.0
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Bench-side spans around the public calls into each layer.

    Spans stay in memory and are written out once, at the end of the
    run.  A disabled tracer hands out the same context manager but
    records nothing, so a workload is written once for both runs.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._quiet = Tracer(workload, enabled=False) if enabled else self

    def for_round(self, index: int) -> "Tracer":
        """The tracer round ``index`` runs under.

        A traced run alternates: even rounds untraced, odd rounds traced,
        so ``bench.tracing_overhead_ratio`` compares neighbours in time
        and a drifting machine cancels out.
        """
        return self if index % 2 == 1 else self._quiet

    @contextmanager
    def span(self, name: str, **tags):
        if not self.enabled:
            yield None
            return
        record = Span(
            span_id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            workload=self.workload,
            start=time.perf_counter(),
            tags=tags,
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn: Callable, **tags):
        """``fn()`` under a span; returns ``(result, seconds)``."""
        start = time.perf_counter()
        with self.span(name, **tags):
            out = fn()
        return out, time.perf_counter() - start

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """A span's self time: its duration minus what its children cover."""
        own = {s.span_id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def totals(self, under: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self seconds.

        ``under`` keeps only spans inside a span of that name (inclusive).
        """
        keep = set()
        if under is not None:
            for s in self.spans:
                if s.name == under or s.parent in keep:
                    keep.add(s.span_id)
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            if under is not None and s.span_id not in keep:
                continue
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.duration
            row["self_s"] += own[s.span_id]
        return out

    def export(self) -> list[dict]:
        return [
            {
                "id": s.span_id,
                "name": s.name,
                "parent": s.parent,
                "workload": s.workload,
                "start": s.start,
                "end": s.end,
                "tags": s.tags,
            }
            for s in self.spans
        ]


def layer_of(span_name: str) -> str:
    """The module a span belongs to: ``dataplat.sql.query`` → ``dataplat.sql``."""
    parts = span_name.split(".")
    return ".".join(parts[:2]) if parts[0] == "dataplat" else parts[0]


def layer_shares(tracer: Tracer, under: str) -> list[tuple[str, float, float]]:
    """``(layer, self seconds, share)`` of the spans under ``under``."""
    by_layer: dict[str, float] = {}
    for name, row in tracer.totals(under=under).items():
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
    total = sum(by_layer.values())
    return sorted(
        ((k, v, v / total if total else 0.0) for k, v in by_layer.items()),
        key=lambda row: -row[1],
    )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def supported_percentile(n_samples: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for q in PERCENTILE_LADDER:
        # In tenths of a percent, so 50 samples times 20 % is exactly 10.
        if n_samples * (1000 - round(q * 10)) >= MIN_SAMPLES_BEYOND * 1000:
            best = q
    return best


def percentile(values, q: float, strict: bool = True) -> float:
    """``q``-th percentile; with ``strict`` the sample must support it."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise HarnessError("percentile of an empty sample")
    if strict:
        top = supported_percentile(len(values))
        if top is None or q > top:
            raise HarnessError(
                f"p{q:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; "
                f"{len(values)} samples support at most p{top}"
            )
    return float(np.percentile(values, q))


def median(values) -> float:
    return float(statistics.median(values))


def calmest(values) -> float:
    """The fastest repetition: what the program costs on a quiet machine.

    One caller repeats the same round; whatever makes a repetition slower
    than the fastest one (another tenant of the host, a frequency dip) is
    the machine, not the program.  A change in the program moves every
    repetition, the fastest one too.
    """
    return float(min(values))


def calmest_pool(samples: list, walls: list[float], needed: int) -> np.ndarray:
    """Per-round samples pooled over the fastest rounds that hold ``needed``.

    The percentile analogue of :func:`calmest`: a percentile needs a
    sample count, so it is taken over as few rounds as supply it, fastest
    first, and a round the machine slowed down is left out when the others
    suffice.
    """
    pooled: list[np.ndarray] = []
    for index in np.argsort(walls, kind="stable"):
        pooled.append(np.asarray(samples[index], dtype=np.float64))
        if sum(len(p) for p in pooled) >= needed:
            break
    return np.concatenate(pooled)


def samples_for(q: float) -> int:
    """Fewest samples that leave ten beyond the ``q``-th percentile."""
    return -(-MIN_SAMPLES_BEYOND * 1000 // (1000 - round(q * 10)))


def digest(*arrays) -> str:
    """Content digest of numpy arrays (dtype- and order-sensitive)."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        if arr.dtype.kind == "O":
            h.update("\x1f".join(str(v) for v in arr.tolist()).encode("utf-8"))
        else:
            h.update(str(arr.dtype).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


#: ``StorageHealth`` counters the per-layer metrics are taken from.
STORAGE_COUNTERS = (
    "cache_hits", "cache_misses", "bytes_decoded", "partitions_pruned",
    "chunks_skipped",
)


def storage_delta(before, after) -> dict[str, float]:
    """What a phase added to a store's health counters, plus its hit rate."""
    delta = {n: getattr(after, n) - getattr(before, n) for n in STORAGE_COUNTERS}
    reads = delta["cache_hits"] + delta["cache_misses"]
    delta["cache_hit_rate"] = delta["cache_hits"] / reads if reads else 0.0
    return delta


def user_bytes(table) -> int:
    """Raw column bytes of a table as handed to ``save``."""
    total = 0
    for name in table.schema.names:
        arr = table.column(name)
        if arr.dtype.kind == "O":
            total += sum(len(str(v).encode("utf-8")) for v in arr.tolist())
        else:
            total += arr.nbytes
    return total


# ----------------------------------------------------------------------
# Operation and oracle accounting
# ----------------------------------------------------------------------


class Ops:
    """Attempted and failed operations; an oracle miss is a failed op.

    A *refused* operation (shed or expired by admission control where the
    service should have kept up) is failed too, but it is the program
    answering, not answering wrongly: it lowers ``ok_share`` and leaves
    ``correct`` alone.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.failures: list[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(reason)

    def refuse(self, reason: str, n: int) -> None:
        self.refused += n
        self.fail(reason, n)

    def check(self, what: str, ok: bool) -> bool:
        """One oracle comparison, counted as an operation of its own."""
        self.attempt()
        if not ok:
            self.fail(f"oracle: {what}")
        return bool(ok)

    @property
    def correct(self) -> bool:
        """No operation raised, was lost or failed its oracle."""
        return self.failed == self.refused

    @property
    def ok_share(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# Run configuration and the round loop
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Tiny sizes for the harness tests; numbers mean nothing.
    smoke: bool = False
    #: Overrides each workload's recorded population (outside the recorded set).
    population: int | None = None

    def size(self, recorded: int, smoke: int) -> int:
        if self.population is not None:
            return self.population
        return smoke if self.smoke else recorded

    def min_rounds(self, recorded: int) -> int:
        """Rounds a run makes at least; a traced run needs one of each kind."""
        rounds = 1 if self.smoke else recorded
        return max(rounds, 2) if self.trace else rounds

    @property
    def strict(self) -> bool:
        """Whether percentiles must have the samples the rule asks for.

        Only the recorded untraced run reports them as end-to-end metrics.
        """
        return not (self.smoke or self.trace)


#: Set-up is repeated at least this often, and until this much time went
#: into it (up to the cap): a 0.3 s set-up needs more repeats than a 2 s
#: one before its median holds still.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_SECONDS = 2.0


def repeat_setup(cfg: RunConfig, build: Callable[[], object]):
    """Set up several times; keep the last state, report the median time."""
    times: list[float] = []
    state = None
    while not _enough_setups(cfg, times):
        state = None  # release the previous world before building the next
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    return state, median(times)


def _enough_setups(cfg: RunConfig, times: list[float]) -> bool:
    if cfg.smoke:
        return len(times) >= 1
    if len(times) < SETUP_MIN_REPEATS:
        return False
    return sum(times) >= SETUP_SECONDS or len(times) >= SETUP_MAX_REPEATS


def run_rounds(
    tracer: Tracer,
    seconds: float,
    min_rounds: int,
    one_round: Callable[[int, Tracer], float],
) -> list[float]:
    """Repeat ``one_round(i, round_tracer)`` until ``seconds`` have passed.

    ``one_round`` returns the seconds the program spent on that round's
    operations.  At least ``min_rounds`` rounds run, so every percentile a
    workload reports has the samples it needs on a slow machine too.
    """
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - start < seconds:
        round_tracer = tracer.for_round(len(walls))
        with round_tracer.span(ROUND_SPAN, index=len(walls)):
            walls.append(one_round(len(walls), round_tracer))
        # Free the round's garbage now, so peak memory is one round's
        # footprint and not a matter of when the collector last ran.
        gc.collect()
    return walls


def split_walls(tracer: Tracer, walls: list[float]) -> tuple[float, float]:
    """Fastest wall of the untraced and of the traced rounds of a traced run."""
    traced = [w for i, w in enumerate(walls) if tracer.for_round(i).enabled]
    base = [w for i, w in enumerate(walls) if not tracer.for_round(i).enabled]
    return calmest(base), calmest(traced)


@dataclass
class Measured:
    """The measured phase of a workload."""

    #: The end-to-end metrics the phase itself determines.
    metrics: dict[str, float]
    #: Seconds the program spent on each round, in order.
    walls: list[float]
    #: Human-readable detail printed above the result line.
    notes: list[str] = field(default_factory=list)
    #: Workload-specific extras its ``layers`` function reads.
    detail: dict = field(default_factory=dict)
