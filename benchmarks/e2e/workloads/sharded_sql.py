"""``sharded_sql``: the same SQL layer through four shards.

Closed loop, one caller, worker pool as wide as the CPU count.  The
tables are hash-split on ``imsi`` across a 4-shard
:class:`ShardedCatalog` (one dimension replicated, one table placed on
another key) and queried through ``ShardedSQLEngine(catalog,
backend="process")``, as the README shows it.  A round is two statements
of each of five classes and one sharded F1..F3 build of one month.
Scatter, gather, shuffle and process fan-out dominate; executing the plan
is minor, so an executor change that helps ``sql_analytics`` but costs
exchange, or the reverse, shows here.

Every sharded result is compared row for row with the single-catalog
engine's answer over the same data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.dataplat import (
    Catalog,
    ShardedCatalog,
    ShardedSQLEngine,
    ShuffleExchange,
    SQLEngine,
    get_metrics,
)
from repro.dataplat.executor import ProcessPoolBackend
from repro.errors import ReproError
from repro.features import WideTableBuilder
from repro.features.sharded import ShardedWideTableBuilder

from harness import (
    Measured,
    Ops,
    RunConfig,
    Tracer,
    calmest,
    calmest_pool,
    median,
    percentile,
    run_rounds,
    samples_for,
    user_bytes,
)
from inputs import (
    SHARDED_CLASSES,
    Statement,
    sharded_round,
    simulate_world,
    towns_table,
    whole_history,
)

#: The pool's worker processes count towards ``peak_rss_mb``.
COUNTS_CHILDREN = True
POPULATION = 1500
SMOKE_POPULATION = 200
NUM_SHARDS = 4
PER_CLASS = 2
#: p80 needs 50 statements and a round has 10: the five fastest of at
#: least six rounds.
MIN_ROUNDS = 6
FEATURE_MONTHS = (6, 7, 8)
FAMILIES = ("F1", "F2", "F3")

#: Per-layer metrics this workload reports; ``layers`` returns exactly these.
LAYER_METRICS = frozenset(
    {
        "datagen.simulate_s",
        "dataplat.sharding.save_rows_per_s",
        "dataplat.sharding.shard_skew",
        "dataplat.sql.scatter.plan_ms",
        "dataplat.sql.scatter.tasks",
        "dataplat.sql.scatter.rows_gathered",
        "dataplat.sharding.shuffle_ms",
        "dataplat.sharding.shuffle_rows",
        "dataplat.executor.pool_start_ms",
        "dataplat.executor.pool_roundtrip_ms",
        "features.sharded.f1_f3_process_s",
        "features.sharded.f1_f3_serial_s",
        "features.widetable.f1_f3_central_s",
    }
    | {
        f"dataplat.sql.scatter.class.{cls}.{engine}_ms"
        for cls in SHARDED_CLASSES
        for engine in ("process", "serial", "single")
    }
)


@dataclass
class State:
    world: object
    sharded: ShardedCatalog
    single: Catalog
    engine: ShardedSQLEngine
    oracle: SQLEngine
    raw_bytes: int
    rows_saved: int


def _tables(world) -> dict:
    """Name → ``(table, shard key)``; ``None`` replicates, ``"imsi"`` is the default."""
    topups = whole_history(world, "recharge_events")
    return {
        "cdr_daily": (whole_history(world, "cdr_daily"), "imsi"),
        "recharge_events": (topups, "imsi"),
        "user_base": (whole_history(world, "user_base"), "imsi"),
        "user_base_m8": (world.month(8).tables["user_base"], "imsi"),
        "towns": (towns_table(world), None),
        # Placed on another key: joining it on imsi needs a shuffle.
        "topups_by_day": (topups, "day"),
    }


def setup(cfg: RunConfig, tracer: Tracer) -> State:
    population = cfg.size(POPULATION, SMOKE_POPULATION)
    with tracer.span("datagen.simulate"):
        _scale, world = simulate_world(population, cfg.seed)
    tables = _tables(world)
    sharded = ShardedCatalog(num_shards=NUM_SHARDS, shard_key="imsi")
    with tracer.span("dataplat.sharding.save"):
        for name, (table, key) in tables.items():
            sharded.save(table, name, key=key)
    single = Catalog()
    for name, (table, _key) in tables.items():
        single.save(table, name)
    return State(
        world=world,
        sharded=sharded,
        single=single,
        engine=ShardedSQLEngine(sharded, backend="process"),
        oracle=SQLEngine(single),
        raw_bytes=sum(user_bytes(t) for t, _ in tables.values()),
        rows_saved=sum(t.num_rows for t, _ in tables.values()),
    )


def same_rows(got, want) -> bool:
    """Row-for-row equality up to row order (sums to float tolerance)."""
    names = list(want.schema.names)
    if list(got.schema.names) != names or got.num_rows != want.num_rows:
        return False
    got, want = got.sort_by(names), want.sort_by(names)
    for name in names:
        a, b = np.asarray(got[name]), np.asarray(want[name])
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            if not np.allclose(a, b, rtol=1e-9, atol=0.0):
                return False
        elif not np.array_equal(a, b):
            return False
    return True


def _query(engine, stmt: Statement, tracer: Tracer, span_name: str):
    start = time.perf_counter()
    with tracer.span(span_name, cls=stmt.cls):
        out = engine.query(stmt.sql)
    return out, time.perf_counter() - start


def _build_families(builder, month: int):
    return builder.features(month, FAMILIES)


def measure(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, seconds: float
) -> Measured:
    latencies: dict[str, list[float]] = {}
    statement_s: list[float] = []
    round_ms: list[list[float]] = []
    feature_s: list[float] = []
    metrics_before = get_metrics().snapshot()["counters"]

    def one_round(index: int, round_tracer: Tracer) -> float:
        spent = 0.0
        round_ms.append([])
        for stmt in sharded_round(cfg.seed, index, PER_CLASS):
            ops.attempt()
            try:
                out, elapsed = _query(
                    state.engine, stmt, round_tracer, "dataplat.sql.scatter.query"
                )
            except ReproError as exc:
                ops.fail(f"{stmt.cls}: {type(exc).__name__}: {exc}")
                continue
            spent += elapsed
            latencies.setdefault(stmt.cls, []).append(elapsed)
            round_ms[-1].append(elapsed * 1e3)
            if not same_rows(out, state.oracle.query(stmt.sql)):
                ops.fail(f"oracle: {stmt.cls} differs from the single engine")
        statement_s.append(spent)
        month = FEATURE_MONTHS[index % len(FEATURE_MONTHS)]
        builder = ShardedWideTableBuilder(state.world, NUM_SHARDS, backend="process")
        block, elapsed = round_tracer.timed(
            "features.sharded.f1_f3", lambda: _build_families(builder, month)
        )
        central = _build_families(WideTableBuilder(state.world), month)
        ops.check(
            f"sharded F1..F3 of month {month} equal the central build",
            np.array_equal(block.imsi, central.imsi)
            and np.array_equal(block.values, central.values),
        )
        feature_s.append(elapsed)
        return spent + elapsed

    walls = run_rounds(tracer, seconds, cfg.min_rounds(MIN_ROUNDS), one_round)
    wall = calmest(walls)
    pooled = calmest_pool(round_ms, statement_s, samples_for(80))
    counters = get_metrics().snapshot()["counters"]
    rounds = len(walls)

    def per_round(counter: str) -> float:
        return (counters.get(counter, 0) - metrics_before.get(counter, 0)) / rounds

    stored = sum(shard.store.total_bytes for shard in state.sharded.shards)
    notes = [
        f"rounds {rounds} x ({PER_CLASS * len(SHARDED_CLASSES)} statements + one "
        f"F1..F3 month); wall_s is the fastest round's, p50 and p80 are over the "
        f"{len(pooled)} statements of the fastest rounds "
        f"({len(pooled) * 0.2:.0f} samples beyond p80)",
        f"sharded F1..F3 per month: median {median(feature_s):.3f} s",
    ]
    return Measured(
        metrics={
            "wall_s": wall,
            # Statements over the seconds spent on statements: the
            # F1..F3 build is in ``wall_s`` only.
            "throughput_per_s": PER_CLASS * len(SHARDED_CLASSES) / calmest(statement_s),
            "latency_p50_ms": percentile(pooled, 50, strict=cfg.strict),
            "latency_tail_ms": percentile(pooled, 80, strict=cfg.strict),
            "stored_bytes_per_user_byte": stored / state.raw_bytes,
        },
        walls=walls,
        notes=notes,
        detail={
            "latencies": latencies,
            "feature_s": median(feature_s),
            "tasks": per_round("shard.scatter_tasks"),
            "rows_gathered": per_round("shard.rows_gathered"),
        },
    )


# ----------------------------------------------------------------------
# Layer probes (traced run only)
# ----------------------------------------------------------------------


def _noop(_item) -> None:
    return None


def layers(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, traced: Measured
) -> dict[str, float]:
    save_s = median(tracer.durations("dataplat.sharding.save"))
    shard_rows = state.sharded.shard_rows("cdr_daily")
    out: dict[str, float] = {
        "datagen.simulate_s": median(tracer.durations("datagen.simulate")),
        "dataplat.sharding.save_rows_per_s": state.rows_saved / save_s,
        "dataplat.sharding.shard_skew": max(shard_rows) / (sum(shard_rows) / len(shard_rows)),
        "dataplat.sql.scatter.tasks": traced.detail["tasks"],
        "dataplat.sql.scatter.rows_gathered": traced.detail["rows_gathered"],
        "features.sharded.f1_f3_process_s": traced.detail["feature_s"],
    }

    # The two bases every sharding speed-up is stated against: the same
    # statements on the serial backend and on one unsharded catalog.
    engines = {
        "serial": ShardedSQLEngine(state.sharded, backend="serial"),
        "single": state.oracle,
    }
    one_of_each = {s.cls: s for s in sharded_round(cfg.seed, 0, 1)}
    plan_ms = []
    traced.notes.append(
        f"{'class':<26s} {'process ms':>11s} {'serial ms':>10s} {'single ms':>10s}"
    )
    for cls in SHARDED_CLASSES:
        stmt = one_of_each[cls]
        row = {"process": median(traced.detail["latencies"][cls]) * 1e3}
        for label, engine in engines.items():
            times = [
                _query(engine, stmt, tracer, f"dataplat.sql.scatter.{label}_query")[1]
                for _ in range(3)
            ]
            row[label] = median(times) * 1e3
        for label, value in row.items():
            out[f"dataplat.sql.scatter.class.{cls}.{label}_ms"] = value
        traced.notes.append(
            f"{cls:<26s} {row['process']:>11.2f} {row['serial']:>10.2f} "
            f"{row['single']:>10.2f}"
        )
        plan_ms.append(
            tracer.timed(
                "dataplat.sql.scatter.plan", lambda s=stmt: state.engine.plan(s.sql)
            )[1]
            * 1e3
        )
    out["dataplat.sql.scatter.plan_ms"] = median(plan_ms)

    counters_before = get_metrics().snapshot()["counters"].get("shard.shuffle_rows", 0)
    _, shuffle_s = tracer.timed(
        "dataplat.sharding.shuffle",
        lambda: ShuffleExchange(state.sharded).repartition("topups_by_day", "imsi"),
    )
    out["dataplat.sharding.shuffle_ms"] = shuffle_s * 1e3
    out["dataplat.sharding.shuffle_rows"] = (
        get_metrics().snapshot()["counters"].get("shard.shuffle_rows", 0)
        - counters_before
    )

    pool = ProcessPoolBackend()
    try:
        _, start_s = tracer.timed(
            "dataplat.executor.pool_start", lambda: pool.map(_noop, range(NUM_SHARDS))
        )
        trips = [
            tracer.timed(
                "dataplat.executor.pool_roundtrip",
                lambda: pool.map(_noop, range(NUM_SHARDS)),
            )[1]
            for _ in range(5)
        ]
    finally:
        pool.close()
    out["dataplat.executor.pool_start_ms"] = start_s * 1e3
    out["dataplat.executor.pool_roundtrip_ms"] = median(trips) * 1e3

    month = FEATURE_MONTHS[-1]
    for label, make in (
        ("features.sharded.f1_f3_serial_s",
         lambda: ShardedWideTableBuilder(state.world, NUM_SHARDS, backend="serial")),
        ("features.widetable.f1_f3_central_s", lambda: WideTableBuilder(state.world)),
    ):
        builder = make()
        out[label] = tracer.timed(
            label.rsplit("_", 1)[0], lambda b=builder: _build_families(b, month)
        )[1]
    return out
