"""Zero-dependency observability: tracing spans, metrics, profiling hooks.

The paper's production loop (Tables 5-6) lives or dies on per-stage
visibility — where did the monthly build spend its time, which reads were
retried, which feature family was slow this month.  This module is the
reproduction's observability layer, deliberately dependency-free:

* :class:`Tracer` — produces *nested* spans.  A span records its name, tags,
  wall/CPU time, ad-hoc counters and child spans; the tree is exported as
  plain dicts for JSON serialization (``scripts/trace_report.py`` renders
  it).  Span structure (names, nesting, tags) is deterministic for a given
  workload; only the timings vary.
* :class:`MetricsRegistry` — process-wide counters, gauges and
  fixed-boundary histograms.  Histograms merge associatively and conserve
  observation counts, so per-worker histograms can be folded back exactly.
* :func:`span` / :func:`profiled` — the hooks hot paths are threaded with.
  When no tracer is installed they cost one module-global load and return a
  shared no-op context; the cost of tracing *on* is the
  ``bench.tracing_overhead_ratio`` row of every traced
  ``benchmarks/e2e/run.py`` run.

Worker propagation: a process-pool task runs under a *fresh* local tracer,
exports its finished spans to dicts, and the parent re-attaches them under
its own current span (:meth:`Tracer.attach`), so traces stay complete
whether a task ran in-process or not.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

from ..errors import DataPlatformError

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "trace",
    "span",
    "profiled",
    "enabled",
    "get_tracer",
    "set_tracer",
    "current_span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "set_metrics",
    "DEFAULT_BUCKETS",
]


# ----------------------------------------------------------------------
# Spans and tracer
# ----------------------------------------------------------------------


class Span:
    """One timed, tagged unit of work in a trace tree."""

    __slots__ = (
        "name",
        "tags",
        "counters",
        "children",
        "status",
        "wall_s",
        "cpu_s",
        "_wall_start",
        "_cpu_start",
    )

    def __init__(self, name: str, tags: dict | None = None) -> None:
        self.name = name
        self.tags: dict = dict(tags) if tags else {}
        self.counters: dict[str, float] = {}
        self.children: list[Span] = []
        self.status = "ok"
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall_start = 0.0
        self._cpu_start = 0.0

    # -- mutation hooks (safe on the no-op span too) -------------------

    def set_tag(self, key: str, value) -> "Span":
        self.tags[key] = value
        return self

    def incr(self, counter: str, amount: float = 1) -> "Span":
        self.counters[counter] = self.counters.get(counter, 0) + amount
        return self

    # -- lifecycle -----------------------------------------------------

    def _start(self) -> None:
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()

    def _finish(self) -> None:
        self.wall_s = time.perf_counter() - self._wall_start
        self.cpu_s = time.process_time() - self._cpu_start

    # -- export --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable view of this span and its subtree."""
        out: dict = {"name": self.name, "wall_s": self.wall_s, "cpu_s": self.cpu_s}
        if self.status != "ok":
            out["status"] = self.status
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree exported by :meth:`to_dict`."""
        span = cls(data["name"], data.get("tags"))
        span.wall_s = float(data.get("wall_s", 0.0))
        span.cpu_s = float(data.get("cpu_s", 0.0))
        span.status = data.get("status", "ok")
        span.counters = dict(data.get("counters", {}))
        span.children = [cls.from_dict(c) for c in data.get("children", ())]
        return span

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def summary(self) -> dict[str, dict[str, float]]:
        """Aggregate ``{name: {count, wall_s, cpu_s}}`` over this subtree.

        Same shape as :meth:`Tracer.summary`, so consumers (health reports)
        can scope their accounting to one span instead of the whole run.
        """
        return _summarize(self.walk())

    def __repr__(self) -> str:
        return f"Span({self.name!r}, wall={self.wall_s:.6f}s, tags={self.tags})"


class _NullSpan(Span):
    """Shared do-nothing span handed out when tracing is disabled."""

    def set_tag(self, key: str, value) -> "Span":
        return self

    def incr(self, counter: str, amount: float = 1) -> "Span":
        return self


#: The span every :func:`span` call yields while tracing is disabled.
NULL_SPAN = _NullSpan("null")


class _NullContext:
    """Reusable no-op context manager (no per-call generator object)."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    """Context manager pushing one span onto a tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._span._start()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span._finish()
        if exc_type is not None:
            self._span.status = f"error:{exc_type.__name__}"
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Collects nested spans for one traced run."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **tags) -> _SpanContext:
        """Open a child span of the current span (or a new root)."""
        return _SpanContext(self, Span(name, tags))

    def current(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def _push(self, span: Span) -> None:
        parent = self.current()
        (parent.children if parent is not None else self.roots).append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:  # pragma: no cover
            raise DataPlatformError(f"span stack corrupted at {span.name!r}")
        self._stack.pop()

    # -- worker merge --------------------------------------------------

    def attach(self, span_dicts: Sequence[dict]) -> None:
        """Graft exported worker spans under the current span.

        The counterpart of a worker's ``[s.to_dict() for s in roots]``:
        remote subtrees appear in the parent trace exactly where the
        fan-out happened.
        """
        parent = self.current()
        bucket = parent.children if parent is not None else self.roots
        for data in span_dicts:
            bucket.append(Span.from_dict(data))

    # -- inspection / export -------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All spans with ``name``, depth-first document order."""
        return [s for s in self.iter_spans() if s.name == name]

    def export(self) -> list[dict]:
        """The whole trace as JSON-serializable dicts."""
        return [root.to_dict() for root in self.roots]

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps({"spans": self.export()}, indent=indent, default=str)

    def summary(self) -> dict[str, dict[str, float]]:
        """Aggregate ``{span name: {count, wall_s, cpu_s}}`` over the tree.

        Wall/CPU sums include time spent in child spans (they nest), so the
        numbers answer "how much time was under spans named X", the question
        a stage budget asks.
        """
        return _summarize(self.iter_spans())


def _summarize(spans: Iterator[Span]) -> dict[str, dict[str, float]]:
    """``{name: {count, wall_s, cpu_s}}`` summed over ``spans`` in order."""
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        agg = out.setdefault(
            span.name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        agg["count"] += 1
        agg["wall_s"] += span.wall_s
        agg["cpu_s"] += span.cpu_s
    return out


# ----------------------------------------------------------------------
# Process-wide tracer installation and the hot-path hooks
# ----------------------------------------------------------------------

_ACTIVE: Tracer | None = None


def enabled() -> bool:
    """Whether a tracer is currently installed (the hot-path guard)."""
    return _ACTIVE is not None


def get_tracer() -> Tracer | None:
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear) the process-wide tracer; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextmanager
def trace(name: str | None = None, tracer: Tracer | None = None):
    """Install a tracer for the duration of the block and yield it.

    >>> with trace() as t:
    ...     with span("work", month=3):
    ...         pass
    >>> [s["name"] for s in t.export()]
    ['work']
    """
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        if name is not None:
            with tracer.span(name):
                yield tracer
        else:
            yield tracer
    finally:
        set_tracer(previous)


def span(name: str, **tags):
    """Open a span on the active tracer; a shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, **tags)


def current_span() -> Span:
    """The innermost open span (``NULL_SPAN`` when tracing is disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.current() or NULL_SPAN


def profiled(name: str | None = None, **tags) -> Callable:
    """Decorator tracing every call of the wrapped function.

    ``@profiled()`` uses the function's qualified name; explicit names keep
    the span taxonomy stable across refactors.  With tracing disabled the
    wrapper adds one global load and a falsy check.
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = _ACTIVE
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(span_name, **tags):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise DataPlatformError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """Point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


#: Default latency-ish bucket boundaries (seconds, roughly log-spaced).
DEFAULT_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Histogram:
    """Fixed-boundary histogram with exact merge semantics.

    ``boundaries`` are upper bounds of the first ``len(boundaries)``
    buckets; one overflow bucket catches everything above the last bound.
    Two invariants the property tests pin down:

    * *bucket-count conservation* — ``sum(counts) == total`` always;
    * *merge associativity* — ``(a + b) + c`` equals ``a + (b + c)``
      bucket-for-bucket (and in total/sum/min/max), so worker histograms
      can be folded back in any order.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "sum", "min", "max")

    def __init__(
        self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise DataPlatformError("histogram needs at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise DataPlatformError(
                f"boundaries must be strictly increasing, got {bounds}"
            )
        self.name = name
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Conservative ``q``-quantile from the bucket counts.

        Returns the smallest bucket upper bound that covers at least
        ``ceil(q * total)`` observations — an over-estimate by at most one
        bucket width, which is the right direction for an SLO gauge (a
        latency budget can only be *falsely breached*, never falsely met).
        Observations in the overflow bucket report the exact observed
        maximum.  An empty histogram returns ``0.0``.
        """
        if not 0.0 < q <= 1.0:
            raise DataPlatformError(f"quantile q must be in (0, 1], got {q}")
        if self.total == 0:
            return 0.0
        target = math.ceil(q * self.total)
        covered = 0
        for bound, count in zip(self.boundaries, self.counts):
            covered += count
            if covered >= target:
                return bound
        return self.max

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram combining both operands (inputs untouched)."""
        if self.boundaries != other.boundaries:
            raise DataPlatformError(
                f"cannot merge histograms with different boundaries: "
                f"{self.boundaries} vs {other.boundaries}"
            )
        out = Histogram(self.name, self.boundaries)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.total = self.total + other.total
        out.sum = self.sum + other.sum
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        return out

    def to_dict(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "min": None if self.total == 0 else self.min,
            "max": None if self.total == 0 else self.max,
        }


class MetricsRegistry:
    """Named counters, gauges and histograms for one process.

    Instruments are created on first use and live for the registry's
    lifetime; :meth:`snapshot` exports everything as plain data for health
    reports and the benchmark JSON.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, boundaries)
        elif tuple(float(b) for b in boundaries) != instrument.boundaries:
            raise DataPlatformError(
                f"histogram {name!r} already registered with different "
                f"boundaries"
            )
        return instrument

    def snapshot(self) -> dict:
        """All instruments as JSON-serializable plain data."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every instrument (tests isolate through this)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _METRICS


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    ``None`` installs a fresh empty registry.  Tests use this to isolate
    their counter assertions from whatever ran before.
    """
    global _METRICS
    previous = _METRICS
    _METRICS = registry if registry is not None else MetricsRegistry()
    return previous
