"""``serve_load``: the online scoring service under an arrival schedule.

Open loop.  Seeded Poisson arrivals (default hot set: 5 % of customers
take 50 % of traffic) are replayed in logical time by one process against
a default :class:`ScoringService` over a 20 000-customer snapshot and an
8-tree forest: five cycles of one ladder rung (2k to 32k req/s), a slice
of the reference step (4k req/s) and a slice of the overload step (32k
req/s).  Each request is timed from its scheduled arrival, and the service
charges the measured wall time of each batch, so a slow batch delays
every later request.  The generator cannot run late (arrivals carry
their scheduled times), which is reported as a lag of zero.

Only here do admission, batching, ``FeatureStore.lookup`` and vectorized
predict do the work; ``dataplat.sql`` and ``features`` do none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.dataplat import get_metrics
from repro.serve import FeatureStore, ModelRegistry, ScoringService

from harness import Measured, Ops, RunConfig, Tracer, median, percentile, run_rounds
from inputs import (
    LADDER_RATES,
    Step,
    serve_schedule,
    serve_snapshot,
    step_arrivals,
    train_forest,
)

POPULATION = 20_000
SMOKE_POPULATION = 2_000
#: The service's latency limit on the reported tail.
LATENCY_LIMIT_MS = 50.0
FAILED_LIMIT = 0.01
SCORE_SAMPLES = 200
#: Percentile of a reference slice reported as ``latency_tail_ms``.
TAIL_PERCENTILE = 90
#: Logical idle time between steps, so each starts on an empty queue.
STEP_GAP_S = 0.25

#: Per-layer metrics this workload reports; ``layers`` returns exactly these.
LAYER_METRICS = frozenset(
    {
        "serve.feature_store.materialize_s",
        "serve.registry.publish_ms",
        "serve.registry.swap_ms",
        "serve.feature_store.lookup64_hot_ms",
        "serve.feature_store.lookup64_cold_ms",
        "serve.feature_store.row_cache_hit_rate",
        "ml.forest.predict64_ms",
        "serve.service.cpu_us_per_request",
        "serve.service.mean_batch_size",
        "serve.service.max_queue_depth",
        "serve.service.generator_lag_ms",
        "serve.service.max_rate_rps",
        "serve.service.capacity_rps",
        "serve.service.p99_ms_reference",
    }
    | {f"serve.service.p99_ms_at_{rate}" for rate in LADDER_RATES}
    | {f"serve.service.failed_share_at_{rate}" for rate in LADDER_RATES}
)


@dataclass
class State:
    matrix: object
    forest: object
    store: FeatureStore
    registry: ModelRegistry
    service: ScoringService
    #: Logical clock: where the next step may start.
    clock: float = 0.0


def setup(cfg: RunConfig, tracer: Tracer) -> State:
    """Copied from ``benchmarks/load_gen.build_service``, default arguments."""
    population = cfg.size(POPULATION, SMOKE_POPULATION)
    matrix, labels = serve_snapshot(population, cfg.seed)
    store = FeatureStore()
    with tracer.span("serve.feature_store.materialize"):
        store.materialize(matrix, "bench")
    with tracer.span("ml.forest.fit"):
        forest = train_forest(matrix, labels, cfg.seed)
    registry = ModelRegistry()
    with tracer.span("serve.registry.publish"):
        registry.publish("bench-v1", forest)
    with tracer.span("serve.registry.swap"):
        registry.activate("bench-v1")
    return State(matrix, forest, store, registry, ScoringService(store, registry))


@dataclass
class StepResult:
    step: Step
    tickets: list
    wall_s: float

    @cached_property
    def scored(self) -> list:
        return [t for t in self.tickets if t.outcome == "scored"]

    @property
    def refused(self) -> int:
        return sum(t.outcome in ("shed", "expired") for t in self.tickets)

    @property
    def unserved(self) -> int:
        return sum(t.outcome in ("shed", "expired", "failed") for t in self.tickets)

    @property
    def scored_per_s(self) -> float:
        """Requests scored per logical second, from first arrival to last score."""
        start = min(t.arrival_s for t in self.tickets)
        return len(self.scored) / (max(t.completion_s for t in self.scored) - start)

    @property
    def unaccounted(self) -> int:
        return sum(not t.terminal for t in self.tickets)

    @property
    def failed_share(self) -> float:
        return (self.unserved + self.unaccounted) / len(self.tickets)

    def latencies_ms(self) -> np.ndarray:
        return np.asarray([t.latency_s for t in self.scored]) * 1e3

    def backlog_grows(self, max_batch: int) -> bool:
        """Whether requests in the system pile up over the step.

        In-system count at each arrival = arrivals so far minus
        completions so far; compared between the first and last quarter.
        """
        arrivals = np.asarray([t.arrival_s for t in self.tickets])
        done = np.sort([t.completion_s for t in self.tickets])
        in_system = np.arange(1, len(arrivals) + 1) - np.searchsorted(
            done, arrivals, side="right"
        )
        quarter = max(len(arrivals) // 4, 1)
        return in_system[-quarter:].mean() > 2 * in_system[:quarter].mean() + max_batch


def replay_step(
    state: State, step: Step, index: int, seed: int, tracer: Tracer
) -> StepResult:
    """Submit one step's arrivals at their scheduled times, then drain."""
    plan = step_arrivals(step, index, seed, state.matrix.imsi)
    times = (plan.times_s + state.clock).tolist()
    service = state.service
    start = time.perf_counter()
    with tracer.span("serve.service.replay", step=step.label, rate=step.rate_rps):
        tickets = [
            service.submit(cid, now=at, deadline_s=plan.deadline_s)
            for at, cid in zip(times, plan.customer_ids.tolist())
        ]
        service.drain()
    wall = time.perf_counter() - start
    last_done = max(t.completion_s for t in tickets)
    state.clock = max(state.clock + step.duration_s, last_done) + STEP_GAP_S
    return StepResult(step, tickets, wall)


def measure(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, seconds: float
) -> Measured:
    """One pass over the schedule; a traced run makes two half-length ones.

    The first pass of a traced run is untraced (the base of the overhead
    ratio) and the reported numbers are the last pass's.  Every pass
    starts on a service of its own, so both meet the same cold caches.
    """
    passes = cfg.min_rounds(1)
    done: list[Measured] = []

    def one_round(index: int, round_tracer: Tracer) -> float:
        served = state if index == 0 else setup(cfg, Tracer(cfg.workload, enabled=False))
        done.append(one_pass(served, cfg, round_tracer, ops, seconds / passes))
        return done[-1].walls[0]

    walls = run_rounds(tracer, 0.0, passes, one_round)
    last = done[-1]
    last.walls = walls
    return last


def one_pass(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, seconds: float
) -> Measured:
    schedule = serve_schedule(seconds)
    counters_before = get_metrics().snapshot()["counters"]
    results = {
        step.label: replay_step(state, step, i, cfg.seed, tracer)
        for i, step in enumerate(schedule)
    }
    counters = get_metrics().snapshot()["counters"]
    hits, misses = (
        counters.get(name, 0) - counters_before.get(name, 0)
        for name in ("serve.store.hits", "serve.store.misses")
    )
    max_batch = state.service.config.max_batch
    references = [r for label, r in results.items() if label.startswith("reference")]
    overloads = [r for label, r in results.items() if label.startswith("overload")]

    # Latencies are medians over the slices of the reference step.  The
    # tail reported end to end is p90: a slice's p99 hangs on the few slowest
    # batches (a cold lookup copies megabytes, at whatever memory bandwidth
    # the host has left) and reads up to twice as high from one run to the
    # next; it is a per-layer metric instead.
    slice_ms = [r.latencies_ms() for r in references]
    p50_ms = median(percentile(ms, 50, strict=cfg.strict) for ms in slice_ms)
    tail_ms = median(percentile(ms, TAIL_PERCENTILE, strict=cfg.strict) for ms in slice_ms)
    p99_ms = median(percentile(ms, 99, strict=cfg.strict) for ms in slice_ms)
    # Requests scored per logical second while arrivals outrun the service:
    # the best of the slices, as a closed loop reports its fastest round.
    capacity = max(r.scored_per_s for r in overloads)

    rungs = [results[f"ladder_{rate}"] for rate in LADDER_RATES]
    rung_p99 = {r.step.rate_rps: float(np.percentile(r.latencies_ms(), 99)) for r in rungs}
    # Highest rung the service sustains, every lower rung included.
    max_rate = 0
    for r in rungs:
        sustained = (
            rung_p99[r.step.rate_rps] <= LATENCY_LIMIT_MS
            and r.failed_share <= FAILED_LIMIT
            and not r.backlog_grows(max_batch)
        )
        if not sustained:
            break
        max_rate = r.step.rate_rps

    # Where the service should keep up (the reference slices and the rungs
    # up to the sustained rate) a shed or expired request is a failed
    # operation.  Above that, shedding is admission control doing its job
    # and is reported per rung as a per-layer metric.
    gated = references + [r for r in rungs if r.step.rate_rps <= max_rate]
    ops.attempt(sum(len(r.tickets) for r in gated))
    refused = sum(r.refused for r in gated)
    if refused:
        ops.refuse(
            f"{refused} requests shed or expired at or below {max_rate} req/s", refused
        )
    errored = sum(t.outcome == "failed" for r in results.values() for t in r.tickets)
    ops.check("no request failed in the feature fetch", errored == 0)
    lost = sum(r.unaccounted for r in results.values())
    ops.check("every request reached a terminal outcome", lost == 0)

    # Online scores must equal the batch predictor on the same snapshot.
    rng = np.random.default_rng([cfg.seed, 5])
    scored = [t for r in references for t in r.scored]
    picks = rng.choice(len(scored), size=min(SCORE_SAMPLES, len(scored)), replace=False)
    rows = np.asarray([scored[i].customer_id for i in picks]) - state.matrix.imsi[0]
    online = np.asarray([scored[i].score for i in picks])
    ops.check(
        "sampled online scores equal predict_proba on the snapshot",
        np.array_equal(online, state.forest.predict_proba(state.matrix.values[rows])),
    )

    wall = sum(r.wall_s for r in results.values())
    requests = sum(len(r.tickets) for r in results.values())
    raw_bytes = state.matrix.values.nbytes + state.matrix.imsi.nbytes
    per_slice = min(len(ms) for ms in slice_ms)
    notes = [
        f"{requests} requests in {wall:.2f} s of replay; p50 and p{TAIL_PERCENTILE} are "
        f"medians over {len(references)} reference slices (>= {per_slice} scored each, "
        f"{per_slice // 10} samples beyond p{TAIL_PERCENTILE}); slice p99 {p99_ms:.2f} ms; "
        f"throughput is the best of {len(overloads)} overload slices",
        f"{'step':<14s} {'sent':>7s} {'scored':>7s} {'unserved':>8s} {'p50 ms':>8s} "
        f"{'p99 ms':>8s} {'scored/s':>9s} {'backlog':>8s}",
    ]
    for label, r in results.items():
        ms = r.latencies_ms()
        notes.append(
            f"{label:<14s} {len(r.tickets):>7d} {len(ms):>7d} {r.unserved:>8d} "
            f"{np.percentile(ms, 50):>8.2f} {np.percentile(ms, 99):>8.2f} "
            f"{r.scored_per_s:>9.0f} {'grows' if r.backlog_grows(max_batch) else 'steady':>8s}"
        )
    notes.append(
        f"max sustained rate {max_rate} req/s ({len(gated)} steps at or below it count "
        f"refusals as failures); generator lag 0 ms by construction"
    )
    return Measured(
        metrics={
            "wall_s": wall,
            "throughput_per_s": capacity,
            "latency_p50_ms": p50_ms,
            "latency_tail_ms": tail_ms,
            "stored_bytes_per_user_byte": state.store.catalog.store.total_bytes
            / raw_bytes,
        },
        walls=[wall],
        notes=notes,
        detail={
            "state": state,
            "results": results,
            "references": references,
            "p99_ms": p99_ms,
            "capacity": capacity,
            "rung_p99": rung_p99,
            "max_rate": max_rate,
            "requests": requests,
            "row_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        },
    )


# ----------------------------------------------------------------------
# Layer probes (traced run only)
# ----------------------------------------------------------------------


def layers(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, traced: Measured
) -> dict[str, float]:
    d = traced.detail
    state = d["state"]  # the service the traced pass ran on
    reference_tickets = [t for r in d["references"] for t in r.scored]
    out: dict[str, float] = {
        "serve.feature_store.materialize_s": median(
            tracer.durations("serve.feature_store.materialize")
        ),
        "serve.registry.publish_ms": median(tracer.durations("serve.registry.publish"))
        * 1e3,
        "serve.registry.swap_ms": median(tracer.durations("serve.registry.swap")) * 1e3,
        "serve.service.cpu_us_per_request": traced.metrics["wall_s"]
        / d["requests"]
        * 1e6,
        "serve.service.mean_batch_size": len(reference_tickets)
        / len({t.batch_id for t in reference_tickets}),
        "serve.service.max_queue_depth": state.service.max_queue_seen,
        "serve.service.generator_lag_ms": 0.0,
        "serve.service.max_rate_rps": d["max_rate"],
        "serve.service.capacity_rps": d["capacity"],
        "serve.service.p99_ms_reference": d["p99_ms"],
        "serve.feature_store.row_cache_hit_rate": d["row_cache_hit_rate"],
    }
    for rate in LADDER_RATES:
        out[f"serve.service.p99_ms_at_{rate}"] = d["rung_p99"][rate]
        out[f"serve.service.failed_share_at_{rate}"] = d["results"][
            f"ladder_{rate}"
        ].failed_share

    # The pieces of one full batch, outside the service.
    ids = state.matrix.imsi
    rng = np.random.default_rng([cfg.seed, 6])
    probe_store = FeatureStore(catalog=state.store.catalog)
    probe_store.attach("bench")
    cold, hot, predict = [], [], []
    for _ in range(20):
        batch = rng.choice(ids, size=64, replace=False)
        cold.append(
            tracer.timed(
                "serve.feature_store.lookup_cold", lambda b=batch: probe_store.lookup(b)
            )[1]
        )
        rows, elapsed = tracer.timed(
            "serve.feature_store.lookup_hot", lambda b=batch: probe_store.lookup(b)
        )
        hot.append(elapsed)
        predict.append(
            tracer.timed(
                "ml.forest.predict64", lambda r=rows: state.forest.predict_proba(r)
            )[1]
        )
    out["serve.feature_store.lookup64_cold_ms"] = median(cold) * 1e3
    out["serve.feature_store.lookup64_hot_ms"] = median(hot) * 1e3
    out["ml.forest.predict64_ms"] = median(predict) * 1e3
    return out
