"""Micro-batching churn-scoring service with admission control.

Request lifecycle (the admission-control state machine, DESIGN.md §14)::

    submit ──▶ queued ──▶ scored     dispatched in a batch, got a score
                  │  └──▶ expired    deadline passed before dispatch
                  │  └──▶ failed     feature fetch failed after retries
                  └────▶  (never stuck: drain() flushes the queue)
    submit ──▶ shed                  queue full; retry_after_s is set

Every submitted request reaches exactly one terminal outcome — the
property tests interleave arrivals, deadlines and capacity to pin this
down.  ``shed`` is decided synchronously at admission (backpressure with
a retry hint); the other outcomes are delivered when the request's batch
completes.

Time is explicit: callers pass ``now`` (seconds on any monotone clock —
a :class:`~repro.dataplat.resilience.SimClock` in tests, wall time in
the benchmark), and the *service time* charged per batch comes from a
pluggable model.  With :class:`FixedServiceTime` a soak run is
bit-for-bit deterministic; with :class:`MeasuredServiceTime` (the
default) the benchmark charges real feature-fetch + predict latency.
The batcher itself is a single-server queue: a batch dispatches when it
is full (``max_batch``) or its oldest request has waited
``batch_window_s``, whichever is earlier, and starts no earlier than the
previous batch's completion.  Batch size is ``min(depth, max_batch)``:
heavy traffic fills batches to ``max_batch`` before the window closes,
but light traffic waits the full ``batch_window_s`` for company, so
below saturation latency follows the window, not the service time
(ROADMAP.md item 20b removes the window).
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from ..dataplat.observability import MetricsRegistry, get_metrics, span
from ..errors import ServeError, StorageError, TransientError
from .feature_store import FeatureStore
from .registry import ModelRegistry

#: Latency bucket bounds (seconds) with millisecond resolution around the
#: 50 ms SLO budget — the stock ``DEFAULT_BUCKETS`` jump straight from
#: 10 ms to 50 ms, too coarse for a p99 gauge gated at 50 ms.
SERVE_LATENCY_BUCKETS = (
    0.001, 0.002, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03, 0.05,
    0.075, 0.1, 0.25, 0.5, 1.0, 5.0,
)
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Terminal request outcomes; a request holds exactly one, exactly once.
TERMINAL_OUTCOMES = ("scored", "shed", "expired", "failed")


@dataclass(slots=True)
class ScoreRequest:
    """One request's ticket; mutated in place as it moves through the queue."""

    request_id: int
    customer_id: int
    arrival_s: float
    #: Absolute deadline; a request not *dispatched* by then expires.
    deadline_s: float
    outcome: str = "queued"
    score: float | None = None
    #: Model version that scored this request (uniform within a batch).
    model_version: str | None = None
    batch_id: int | None = None
    completion_s: float | None = None
    #: Backpressure hint, set only on ``shed``.
    retry_after_s: float | None = None

    @property
    def terminal(self) -> bool:
        return self.outcome in TERMINAL_OUTCOMES

    @property
    def latency_s(self) -> float | None:
        if self.completion_s is None:
            return None
        return self.completion_s - self.arrival_s

    def _finish(self, outcome: str, completion_s: float) -> None:
        if self.terminal:
            raise ServeError(
                f"request {self.request_id} already {self.outcome}; "
                f"cannot become {outcome}"
            )
        self.outcome = outcome
        self.completion_s = completion_s


@dataclass(frozen=True)
class ServeConfig:
    """Admission-control and batching knobs."""

    #: Largest vectorized predict; also the batch-full dispatch trigger.
    max_batch: int = 64
    #: Longest a queued request waits for company before dispatch.
    batch_window_s: float = 0.005
    #: Queue bound; admission sheds beyond it (``>= max_batch``).
    max_queue_depth: int = 512
    #: Deadline applied when ``submit`` is not given one.
    default_deadline_s: float = 0.250
    #: Memoized per-customer scores (valid for one model version only);
    #: ``0`` disables memoization.
    score_cache_rows: int = 4096

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.batch_window_s < 0:
            raise ServeError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if self.max_queue_depth < self.max_batch:
            raise ServeError(
                f"max_queue_depth ({self.max_queue_depth}) must be >= "
                f"max_batch ({self.max_batch}); a full batch must fit"
            )
        if self.default_deadline_s <= 0:
            raise ServeError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}"
            )
        if self.score_cache_rows < 0:
            raise ServeError(
                f"score_cache_rows must be >= 0, got {self.score_cache_rows}"
            )


class MeasuredServiceTime:
    """Charge the wall-clock seconds the batch actually took (default)."""

    def __call__(self, wall_s: float, batch_size: int) -> float:
        return wall_s


@dataclass(frozen=True)
class FixedServiceTime:
    """Deterministic service-time model: ``base_s + per_row_s * batch``.

    The real predict still runs — only the latency accounting is modeled —
    so soak and property tests are bit-for-bit reproducible while scores
    stay genuine.
    """

    base_s: float = 0.002
    per_row_s: float = 0.00002

    def __call__(self, wall_s: float, batch_size: int) -> float:
        return self.base_s + self.per_row_s * batch_size


class _Instruments:
    """The service's hot-path instruments, resolved in one registry."""

    __slots__ = ("registry", "requests", "shed", "expired", "failures",
                 "scored", "queue_depth", "batch_size", "latency")

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.registry = metrics
        self.requests, self.shed, self.expired, self.failures, self.scored = (
            metrics.counter(f"serve.{name}")
            for name in ("requests", "shed", "expired", "failures", "scored")
        )
        self.queue_depth = metrics.gauge("serve.queue_depth")
        self.batch_size = metrics.histogram("serve.batch_size", BATCH_SIZE_BUCKETS)
        self.latency = metrics.histogram("serve.latency_s", SERVE_LATENCY_BUCKETS)


class ScoringService:
    """Admission-controlled micro-batcher over a store and a registry."""

    def __init__(
        self,
        store: FeatureStore,
        registry: ModelRegistry,
        config: ServeConfig | None = None,
        service_time=None,
    ) -> None:
        self._store = store
        self._registry = registry
        self.config = config if config is not None else ServeConfig()
        self._service_time = (
            service_time if service_time is not None else MeasuredServiceTime()
        )
        self._queue: deque[ScoreRequest] = deque()
        self._completed: list[ScoreRequest] = []
        self._now = 0.0
        self._busy_until = 0.0
        #: :meth:`_head_start`, updated by every event that can move it.
        self._next_start = math.inf
        self._handles: _Instruments | None = None
        self._next_id = 0
        self._next_batch = 0
        #: High-water mark of the queue depth (gauge mirror for tests).
        self.max_queue_seen = 0
        #: Size of every dispatched batch, in dispatch order.
        self.batch_sizes: list[int] = []
        self._score_cache: OrderedDict[int, float] = OrderedDict()
        self._cache_version: str | None = None
        registry.subscribe(self._on_model_swap)

    # ------------------------------------------------------------------
    # request path

    def submit(
        self, customer_id: int, now: float, deadline_s: float | None = None
    ) -> ScoreRequest:
        """Admit one request at time ``now``; returns its ticket.

        A ``shed`` ticket (queue at ``max_queue_depth``) is the immediate
        response, carrying ``retry_after_s``; any other ticket resolves on
        a later :meth:`poll`/:meth:`drain` once its batch completes.
        """
        metrics = self._advance(now)
        metrics.requests.inc()
        deadline = (
            self.config.default_deadline_s if deadline_s is None else deadline_s
        )
        if deadline <= 0:
            raise ServeError(f"deadline_s must be > 0, got {deadline}")
        # Positional: keyword construction costs twice as much per ticket.
        request = ScoreRequest(self._next_id, int(customer_id), now, now + deadline)
        self._next_id += 1
        if len(self._queue) >= self.config.max_queue_depth:
            request.retry_after_s = (
                max(self._busy_until - now, 0.0) + self.config.batch_window_s
            )
            request._finish("shed", now)
            metrics.shed.inc()
            return request
        self._queue.append(request)
        depth = len(self._queue)
        if depth > self.max_queue_seen:
            self.max_queue_seen = depth
        metrics.queue_depth.set(depth)
        # A new head or a full batch moves the start; a batch-full trigger
        # may then be due (idle server, depth hit max_batch): requests
        # never wait past their trigger when the server could take them.
        if depth == 1 or depth == self.config.max_batch:
            self._next_start = self._head_start()
            if self._next_start <= now:
                self._pump()
        return request

    def poll(self, now: float) -> list[ScoreRequest]:
        """Advance time to ``now`` and collect newly terminal tickets."""
        self._advance(now)
        done, self._completed = self._completed, []
        return done

    def drain(self, now: float | None = None) -> list[ScoreRequest]:
        """Flush the queue (ignoring batch windows) and collect tickets."""
        if now is not None:
            self._advance(now)
        while self._queue:
            self._dispatch(max(self._next_start, self._now))
        self._now = max(self._now, self._busy_until)
        done, self._completed = self._completed, []
        return done

    # ------------------------------------------------------------------
    # SLO surface

    def slo_snapshot(self) -> dict:
        """Fold the hot-path instruments into SLO gauges and return them.

        Sets ``serve.latency_p50_s`` / ``serve.latency_p99_s`` (from the
        latency histogram, conservative bucket-upper-bound quantiles) and
        ``serve.shed_rate`` (sheds + expiries + failures over submissions)
        so a :class:`~repro.dataplat.telemetry.TelemetrySink` window picks
        them up for the watchtower's serve rules.
        """
        metrics = get_metrics()
        hist = metrics.histogram("serve.latency_s", SERVE_LATENCY_BUCKETS)
        p50 = hist.quantile(0.50)
        p99 = hist.quantile(0.99)
        submitted = metrics.counter("serve.requests").value
        unserved = (
            metrics.counter("serve.shed").value
            + metrics.counter("serve.expired").value
            + metrics.counter("serve.failures").value
        )
        shed_rate = unserved / submitted if submitted else 0.0
        metrics.gauge("serve.latency_p50_s").set(p50)
        metrics.gauge("serve.latency_p99_s").set(p99)
        metrics.gauge("serve.shed_rate").set(shed_rate)
        metrics.gauge("serve.queue_depth_peak").set(self.max_queue_seen)
        return {
            "latency_p50_s": p50,
            "latency_p99_s": p99,
            "shed_rate": shed_rate,
            "queue_depth_peak": self.max_queue_seen,
        }

    # ------------------------------------------------------------------
    # internals

    def _on_model_swap(self, version: str) -> None:
        # Memoized scores are only valid for the model that produced them.
        self._score_cache.clear()
        self._cache_version = version

    def _advance(self, now: float) -> _Instruments:
        """Move the clock to ``now``, dispatching what is due; returns the
        instrument handles."""
        if now < self._now:
            raise ServeError(
                f"time went backwards: {now} < {self._now}"
            )
        self._now = now
        if now >= self._next_start:
            self._pump()
        metrics = self._instruments()
        metrics.queue_depth.set(len(self._queue))
        return metrics

    def _pump(self) -> None:
        """Dispatch every batch whose start time has arrived.

        A batch starts at ``max(trigger, busy_until)`` — single-server
        queueing — and only when that instant is not in the future:
        while the server is busy, requests *stay queued*, which is what
        lets the queue deepen under load (adaptive batch growth) and
        admission control actually shed at the bound.
        """
        while self._next_start <= self._now:
            self._dispatch(self._next_start)

    def _head_start(self) -> float:
        """``max(trigger, busy_until)`` for the head batch, the trigger being
        window expiry or batch-full time; +inf on an empty queue."""
        queue = self._queue
        if not queue:
            return math.inf
        trigger = queue[0].arrival_s + self.config.batch_window_s
        if len(queue) >= self.config.max_batch:
            trigger = min(trigger, queue[self.config.max_batch - 1].arrival_s)
        return max(trigger, self._busy_until)

    def _instruments(self) -> _Instruments:
        """Instrument handles, resolved again only in a swapped registry."""
        metrics = get_metrics()
        handles = self._handles
        if handles is None or handles.registry is not metrics:
            handles = self._handles = _Instruments(metrics)
        return handles

    def _dispatch(self, start_s: float) -> None:
        size = min(len(self._queue), self.config.max_batch)
        batch = [self._queue.popleft() for _ in range(size)]
        batch_id = self._next_batch
        self._next_batch += 1
        self.batch_sizes.append(size)
        metrics = self._instruments()
        metrics.batch_size.observe(size)

        # Capture the active model ONCE per batch: a registry swap landing
        # mid-batch must never split one response across model versions.
        version, model = self._registry.current()

        live: list[ScoreRequest] = []
        for request in batch:
            if request.deadline_s < start_s:
                request._finish("expired", start_s)
                metrics.expired.inc()
            elif request.outcome != "queued":
                request._finish("scored", start_s)  # raises: already terminal
            else:
                live.append(request)

        scores: list[float] | None = None
        failure: Exception | None = None
        wall_s = 0.0
        with span(
            "serve.batch",
            batch_id=batch_id,
            size=size,
            model_version=version,
        ) as sp:
            if live:
                t0 = time.perf_counter()
                try:
                    scores = self._score_batch(live, version, model)
                except (TransientError, StorageError, ServeError) as exc:
                    failure = exc
                wall_s = time.perf_counter() - t0
            service_s = (
                float(self._service_time(wall_s, len(live))) if live else 0.0
            )
            completion = start_s + service_s
            self._busy_until = max(self._busy_until, completion)
            if failure is not None:
                for request in live:
                    request._finish("failed", completion)
                metrics.failures.inc(len(live))
                sp.set_tag("outcome", f"failed: {failure}")
            elif live:
                # Every live request was checked ``queued`` above.
                observe = metrics.latency.observe
                for request, value in zip(live, scores):
                    request.outcome = "scored"
                    request.score = value
                    request.model_version = version
                    request.batch_id = batch_id
                    request.completion_s = completion
                    observe(completion - request.arrival_s)
                metrics.scored.inc(len(live))
                sp.set_tag("outcome", "scored")
            sp.incr("scored", len(live) if failure is None else 0)
            sp.incr("expired", size - len(live))
        self._completed.extend(batch)
        self._next_start = self._head_start()
        metrics.queue_depth.set(len(self._queue))

    def _score_batch(
        self, live: list[ScoreRequest], version: str, model
    ) -> list[float]:
        cids = [request.customer_id for request in live]
        cache = self._score_cache
        if self._cache_version != version:
            # Defensive: the subscribe() hook already clears on swap, but a
            # registry shared by several services only notifies after its
            # own swap; never serve another version's memoized score.
            cache.clear()
            self._cache_version = version
        get, touch = cache.get, cache.move_to_end
        out: list[float | None] = []
        need_idx: list[int] = []
        for i, cid in enumerate(cids):
            cached = get(cid)
            if cached is None:
                need_idx.append(i)
            else:
                touch(cid)
            out.append(cached)
        if need_idx:
            features = self._store.lookup([cids[i] for i in need_idx])
            fresh = np.asarray(model.predict_proba(features), dtype=np.float64)
            for i, value in zip(need_idx, fresh.tolist()):
                out[i] = value
                cache[cids[i]] = value
                touch(cids[i])
                while len(cache) > self.config.score_cache_rows:
                    cache.popitem(last=False)
        return out
