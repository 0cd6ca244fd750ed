"""Fault-tolerant execution runtime: chaos injection, retry, degradation.

The paper's platform survives what a production Hadoop cluster throws at it
— datanode loss, failed reads, malformed vendor records — while still
producing a churn list every month.  This module is the reproduction's resilience layer:

* :class:`SimClock` — a simulated monotonic clock, so backoff schedules are
  testable without wall-clock sleeps;
* :class:`RetryPolicy` — capped exponential backoff with *deterministic*
  jitter (seeded), applied to any retryable callable;
* :class:`FaultPolicy` / :class:`FaultInjector` — a seeded chaos policy
  drawing transient block-store read failures deterministically, so every
  chaos run is reproducible bit for bit;
* :class:`PipelineHealthReport` — the structured record of everything the
  runtime absorbed (retries, repaired replicas, quarantined rows, dropped
  feature families) that monitoring and the predictor consume;
* :class:`CatalogTableSource` — a month-table source backed by the catalog
  (hence the block store and its fault paths) instead of in-memory world
  tables, so chaos at the storage layer reaches the feature pipeline.

Only :exc:`~repro.errors.TransientError` is considered retryable; schema
violations, unknown tables and other deterministic failures fail fast.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataPlatformError, StorageError, TransientError

__all__ = [
    "SimClock",
    "RetryPolicy",
    "FaultPolicy",
    "FaultInjector",
    "SimulatedCrash",
    "CrashPoint",
    "ResilienceEvent",
    "PipelineHealthReport",
    "CatalogTableSource",
]


class SimulatedCrash(BaseException):
    """An injected process crash at a named crash point.

    Deliberately **not** a :class:`~repro.errors.ReproError` (nor even an
    ``Exception``): a crash is the process dying, so no retry policy,
    quarantine handler or ``except Exception`` recovery path may absorb
    it.  Only the crash-test harness catches it, then reopens the catalog
    and asserts the crash-consistency invariants.
    """

    def __init__(self, point: str, detail: str = "", hit: int = 0) -> None:
        super().__init__(
            f"simulated crash at point {point!r}"
            + (f" ({detail})" if detail else "")
            + f" [hit #{hit}]"
        )
        self.point = point
        self.detail = detail
        self.hit = hit


class CrashPoint:
    """Named crash sites for systematic crash-consistency sweeps.

    Write paths call :meth:`hit` at every named point (each block-store
    mutation, each step of the catalog commit protocol).  A test first
    runs an operation unarmed to *enumerate* the points it passes
    (:attr:`visited`), then re-runs it once per point with
    ``raise_at(k)`` armed: the ``k``-th hit raises
    :class:`SimulatedCrash`, simulating the process dying right there.
    Arming is one-shot — after firing the point disarms itself, so
    recovery code running after the "crash" is not re-crashed.
    """

    def __init__(self) -> None:
        self.hits = 0
        #: ``(label, detail)`` per hit, in order — the enumeration a sweep
        #: iterates over (detail is typically the store path involved).
        self.visited: list[tuple[str, str]] = []
        self._armed: int | None = None

    def raise_at(self, k: int) -> "CrashPoint":
        """Arm a crash at the ``k``-th hit from now (1-based)."""
        if k < 1:
            raise DataPlatformError(f"crash hit index must be >= 1, got {k}")
        self._armed = k
        return self

    @property
    def armed(self) -> bool:
        return self._armed is not None

    def reset(self) -> None:
        """Clear hit counter, visit log, and arming."""
        self.hits = 0
        self.visited = []
        self._armed = None

    def hit(self, label: str, detail: str = "") -> None:
        """Record passing a crash point; raise if the armed hit is reached."""
        self.hits += 1
        self.visited.append((label, detail))
        if self._armed is not None and self.hits >= self._armed:
            self._armed = None
            raise SimulatedCrash(label, detail, self.hits)


class SimClock:
    """A simulated monotonic clock; ``sleep`` advances it instantly."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise DataPlatformError(f"cannot sleep {seconds} seconds")
        self._now += seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    The delay before retry ``k`` (0-based) is::

        min(max_delay, base_delay * multiplier**k) * (1 - jitter * u_k)

    where ``u_k`` in [0, 1) is drawn from a generator seeded with
    ``(seed, k)`` — the same policy always produces the same schedule, so
    chaos runs stay reproducible.
    """

    max_attempts: int = 4
    base_delay: float = 0.1
    max_delay: float = 30.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise DataPlatformError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay <= 0 or self.max_delay < self.base_delay:
            raise DataPlatformError(
                f"need 0 < base_delay <= max_delay, got "
                f"{self.base_delay}..{self.max_delay}"
            )
        if self.multiplier < 1:
            raise DataPlatformError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0 <= self.jitter <= 1:
            raise DataPlatformError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        if retry_index < 0:
            raise DataPlatformError(f"retry_index must be >= 0, got {retry_index}")
        raw = min(self.max_delay, self.base_delay * self.multiplier**retry_index)
        u = np.random.default_rng((self.seed, retry_index)).random()
        return raw * (1.0 - self.jitter * u)

    def schedule(self) -> list[float]:
        """The full backoff schedule (one delay per possible retry)."""
        return [self.delay(k) for k in range(self.max_attempts - 1)]

    def call(
        self,
        fn: Callable[[], object],
        clock: SimClock | None = None,
        on_retry: Callable[[int, float, BaseException], None] | None = None,
    ):
        """Run ``fn``, retrying :class:`TransientError` failures per the schedule.

        ``on_retry(retry_index, delay, exc)`` is invoked before each sleep,
        for accounting.  The final failure propagates unchanged.
        """
        clock = clock if clock is not None else SimClock()
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except TransientError as exc:
                if attempt + 1 >= self.max_attempts:
                    raise
                pause = self.delay(attempt)
                if on_retry is not None:
                    on_retry(attempt, pause, exc)
                clock.sleep(pause)
        raise AssertionError("unreachable")  # pragma: no cover


#: Fault kinds drawn by :class:`FaultInjector`, each mapped to its stream
#: id so a draw for one kind never perturbs another kind's stream.  The ids
#: are fixed, not positional: renumbering a kind would reshuffle every
#: seeded chaos run (ids 1 to 5 belonged to retired task and vendor-feed
#: fault kinds).
FAULT_KINDS = {
    "read_failure": 0,  # transient block-store read failure
}


@dataclass(frozen=True)
class FaultPolicy:
    """Per-kind fault probabilities (default 0: no chaos)."""

    read_failure_rate: float = 0.0

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = self.rate(kind)
            if not 0.0 <= rate < 1.0:
                raise DataPlatformError(
                    f"{kind} rate must be in [0, 1), got {rate}"
                )

    def rate(self, kind: str) -> float:
        try:
            return getattr(self, f"{kind}_rate")
        except AttributeError:
            raise DataPlatformError(f"unknown fault kind {kind!r}") from None


class FaultInjector:
    """Seeded, deterministic chaos source.

    Each fault kind has its own counted stream: the ``n``-th draw for a kind
    is produced by a generator seeded with ``(seed, kind_id, n)``, so the
    decision sequence per kind is independent of how draws for different
    kinds interleave.  ``injected`` counts the faults actually fired.
    """

    def __init__(
        self,
        policy: FaultPolicy | None = None,
        seed: int = 0,
        crash_point: CrashPoint | None = None,
    ) -> None:
        self.policy = policy if policy is not None else FaultPolicy()
        self.seed = seed
        self._draws = {kind: 0 for kind in FAULT_KINDS}
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        #: Optional named-crash-site harness; ``None`` means no crash
        #: injection.  Store/catalog write paths call
        #: ``crash_point.hit(label, path)`` at each named point.
        self.crash_point = crash_point

    @classmethod
    def disabled(cls) -> "FaultInjector":
        """An injector that never fires (the zero-fault control)."""
        return cls(FaultPolicy(), seed=0)

    def should(self, kind: str) -> bool:
        """Draw the next Bernoulli decision for ``kind``."""
        rate = self.policy.rate(kind)
        n = self._draws[kind]
        self._draws[kind] = n + 1
        if rate <= 0.0:
            return False
        stream = (self.seed, FAULT_KINDS[kind], n)
        fire = np.random.default_rng(stream).random() < rate
        if fire:
            self.injected[kind] += 1
        return bool(fire)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


@dataclass(frozen=True)
class ResilienceEvent:
    """One thing the runtime absorbed instead of crashing."""

    kind: str
    subject: str
    detail: str = ""


@dataclass
class PipelineHealthReport:
    """Structured record of a (possibly degraded) pipeline run.

    Produced by the wide-table builder / pipeline, consumed by
    :mod:`repro.core.monitoring` and surfaced on the predictor, so a
    campaign consumer can tell a full-fidelity churn list from one built
    while sources were down.
    """

    families_used: list[str] = field(default_factory=list)
    families_dropped: dict[str, str] = field(default_factory=dict)
    retries: int = 0
    repaired_replicas: int = 0
    corrupt_replicas_detected: int = 0
    re_replicated_blocks: int = 0
    quarantined_rows: int = 0
    faults_injected: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    events: list[ResilienceEvent] = field(default_factory=list)
    #: Aggregated span timings (``{span name: {count, wall_s, cpu_s}}``)
    #: absorbed from the active tracer, so a health report answers not just
    #: "what degraded" but "where the time went" (see :meth:`absorb_trace`).
    span_timings: dict[str, dict] = field(default_factory=dict)
    #: Watchtower alerts fired for this window
    #: (:class:`~repro.core.watchtower.Alert`), folded in by
    #: :meth:`absorb_alerts` so drift and degradation read from one report.
    alerts: list = field(default_factory=list)

    def record(self, kind: str, subject: str, detail: str = "") -> None:
        self.events.append(ResilienceEvent(kind, subject, detail))

    def drop_family(self, family: str, reason: str) -> None:
        self.families_dropped[family] = reason
        self.record("family_dropped", family, reason)

    @property
    def degraded(self) -> bool:
        return bool(self.families_dropped)

    @property
    def status(self) -> str:
        """``"full"`` or ``"degraded(F2,F5)"`` — the predictor annotation."""
        if not self.degraded:
            return "full"
        return f"degraded({','.join(sorted(self.families_dropped))})"

    def absorb_storage(self, health: "object") -> None:
        """Fold a block store's :class:`StorageHealth` counters in."""
        self.retries += health.read_retries
        self.repaired_replicas += health.replicas_repaired
        self.corrupt_replicas_detected += health.corrupt_replicas_detected
        self.re_replicated_blocks += health.replicas_recreated
        self.faults_injected += health.transient_read_failures
        self.cache_hits += getattr(health, "cache_hits", 0)
        self.cache_misses += getattr(health, "cache_misses", 0)

    def absorb_alerts(self, alerts: Iterable) -> None:
        """Fold fired watchtower alerts into this window's report.

        Each alert also lands as an event, so the chronological event log
        and the alert list stay consistent.
        """
        for alert in alerts:
            self.alerts.append(alert)
            self.record(f"alert_{alert.severity}", alert.rule, alert.message)

    @property
    def paged(self) -> bool:
        """Whether any ``page``-tier alert fired for this window."""
        return any(a.severity == "page" for a in self.alerts)

    def absorb_trace(self, tracer) -> None:
        """Fold a tracer's per-span-name aggregate timings into the report.

        ``tracer`` is a :class:`~repro.dataplat.observability.Tracer` (or
        anything with its ``summary()`` shape); repeated absorption sums.
        """
        for name, agg in tracer.summary().items():
            slot = self.span_timings.setdefault(
                name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
            )
            slot["count"] += agg["count"]
            slot["wall_s"] += agg["wall_s"]
            slot["cpu_s"] += agg["cpu_s"]

    def render(self) -> str:
        lines = [
            f"Pipeline health: {self.status}",
            f"  families used: {', '.join(self.families_used) or '-'}",
        ]
        for family, reason in sorted(self.families_dropped.items()):
            lines.append(f"  dropped {family}: {reason}")
        lines.append(f"  retries: {self.retries} read")
        lines.append(
            f"  storage: {self.corrupt_replicas_detected} corrupt replicas "
            f"detected, {self.repaired_replicas} repaired, "
            f"{self.re_replicated_blocks} re-replicated"
        )
        lines.append(f"  quarantined rows: {self.quarantined_rows}")
        lines.append(f"  faults injected: {self.faults_injected}")
        reads = self.cache_hits + self.cache_misses
        if reads:
            lines.append(
                f"  table cache: {self.cache_hits}/{reads} hits "
                f"({self.cache_hits / reads:.0%})"
            )
        if self.alerts:
            lines.append(f"  alerts: {len(self.alerts)}")
            for alert in self.alerts:
                lines.append(
                    f"    [{alert.severity.upper():<4}] {alert.rule}: "
                    f"{alert.message}"
                )
        if self.span_timings:
            top = sorted(
                self.span_timings.items(),
                key=lambda kv: kv[1]["wall_s"],
                reverse=True,
            )[:5]
            lines.append("  slowest stages:")
            for name, agg in top:
                lines.append(
                    f"    {name}: {agg['wall_s']:.3f}s wall over "
                    f"{agg['count']} span(s)"
                )
        return "\n".join(lines)


class CatalogTableSource:
    """Serve a month's raw tables from the catalog instead of the world.

    ``TelcoWorld.load_catalog`` writes every monthly table into a warehouse
    database partitioned by ``month=t``; this source reads them back (with
    retries — catalog reads go through the block store, whose transient
    faults surface here) so the feature pipeline exercises the full storage
    path.  A table whose partition is missing (feed down, dropped by ETL
    quarantine, deliberately deleted by a chaos test) is simply absent from
    the returned dict, which downstream degrades on.
    """

    def __init__(
        self,
        catalog,
        database: str = "telco",
        retry_policy: RetryPolicy | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self._catalog = catalog
        self._database = database
        self._retry = retry_policy if retry_policy is not None else RetryPolicy()
        self._clock = clock if clock is not None else SimClock()
        #: Per-read accounting; a degraded pipeline window swaps in its own
        #: report while it runs.
        self.health = PipelineHealthReport()

    def tables_for(self, month: int) -> dict:
        """All tables that have a ``month=<t>`` partition, loaded."""
        partition = f"month={month}"
        out = {}
        for name in self._catalog.tables(self._database):
            if partition not in self._catalog.partitions(name, self._database):
                continue

            def load(name=name):
                return self._catalog.load(
                    name, database=self._database, partition=partition
                )

            def on_retry(retry_index, pause, exc, name=name):
                self.health.retries += 1
                self.health.record("read_retry", name, str(exc))

            try:
                out[name] = self._retry.call(
                    load, clock=self._clock, on_retry=on_retry
                )
            except (TransientError, StorageError) as exc:
                # The table is unreadable even after retries: treat it as a
                # down feed and let the feature layer degrade.
                self.health.record("table_unavailable", name, str(exc))
        return out
