"""``sql_analytics``: the read side of the platform under one analyst.

Closed loop, one caller, default :class:`SQLEngine` over the persisted
world.  A round is a seeded stream of nine statement classes: a cold
segment (``clear_cache()`` before every statement, so the working set is
larger than the cache) and then a warm segment three times as long (the
working set fits the 256 MiB table cache).  ``dataplat.sql``,
``dataplat.table`` and ``dataplat.catalog`` do all the work; ``ml``,
``features`` and ``serve`` none.

Each class is checked once per run against an answer computed with numpy
from the generated arrays.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.dataplat import Catalog, SQLEngine
from repro.dataplat.columnar import ScanPredicate
from repro.errors import ReproError

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
    storage_delta,
    user_bytes,
)
from inputs import (
    DAYS_PER_MONTH,
    SQL_CLASS_MIX,
    WIDE_JOIN_MONTH,
    Statement,
    persisted_world,
    skewed_world,
    sql_round,
    towns_table,
    whole_history,
)

POPULATION = 1500
SMOKE_POPULATION = 200
DATABASE = "telco"
#: A round has 215 statements, which p95 needs (200); the fastest of at
#: least three rounds is reported.
MIN_ROUNDS = 3
SKEWED_ROWS = 10_000
SKEWED_CUSTOMERS = 700

#: Per-layer metrics this workload reports; ``layers`` returns exactly these.
LAYER_METRICS = frozenset(
    {
        "datagen.simulate_s",
        "dataplat.catalog.load_world_s",
        "dataplat.columnar.partitions_pruned",
        "dataplat.columnar.chunks_skipped",
        "dataplat.blockstore.bytes_decoded",
        "dataplat.catalog.cache_hit_rate",
        "dataplat.sql.plan_ms",
        "dataplat.catalog.scan_full_cold_mb_per_s",
        "dataplat.catalog.scan_pruned_ms",
        "dataplat.table.join_ms",
        "dataplat.table.group_by_ms",
        "dataplat.table.sort_by_ms",
    }
    | {
        f"dataplat.sql.class.{cls}.{phase}_ms"
        for cls in SQL_CLASS_MIX
        for phase in ("cold", "warm")
    }
)


@dataclass
class State:
    world: object
    catalog: Catalog
    engine: SQLEngine
    skewed: dict
    raw_bytes: int
    #: Statements per round relative to ``SQL_CLASS_MIX``.
    mix_scale: float
    _arrays: dict = field(default_factory=dict)

    def history(self, name: str):
        if name not in self._arrays:
            self._arrays[name] = whole_history(self.world, name)
        return self._arrays[name]


def setup(cfg: RunConfig, tracer: Tracer) -> State:
    population = cfg.size(POPULATION, SMOKE_POPULATION)
    _scale, world, catalog, raw = persisted_world(
        population, cfg.seed, tracer, database=DATABASE
    )
    skewed = skewed_world(
        cfg.seed,
        SKEWED_ROWS // (10 if cfg.smoke else 1),
        SKEWED_CUSTOMERS // (10 if cfg.smoke else 1),
    )
    extra = {"towns": towns_table(world), **skewed}
    for name, table in extra.items():
        catalog.save(table, name, database=DATABASE)
    engine = SQLEngine(catalog, database=DATABASE)
    _register_month_views(engine, catalog, WIDE_JOIN_MONTH)
    raw += sum(user_bytes(t) for t in extra.values())
    return State(world, catalog, engine, skewed, raw, 0.1 if cfg.smoke else 1.0)


def _register_month_views(engine: SQLEngine, catalog: Catalog, month: int) -> None:
    """The month views and the two aggregates the F1-shaped join reads."""
    partition = f"month={month}"
    for name in (
        "user_base", "cdr_monthly", "billing", "complaints", "cdr_daily",
        "recharge_events",
    ):
        engine.register(
            catalog.load(name, database=DATABASE, partition=partition),
            f"{name}_m{month}",
        )
    engine.register(
        engine.query(
            f"SELECT imsi, COUNT(*) AS recharge_cnt, SUM(amount) AS recharge_amt "
            f"FROM recharge_events_m{month} GROUP BY imsi"
        ),
        f"recharge_agg_m{month}",
    )
    engine.register(
        engine.query(
            f"SELECT imsi, SUM(call_dur) AS total_call_dur_d "
            f"FROM cdr_daily_m{month} GROUP BY imsi"
        ),
        f"daily_agg_m{month}",
    )


# ----------------------------------------------------------------------
# Numpy oracles
# ----------------------------------------------------------------------


def _group_sum(keys: np.ndarray, *values: np.ndarray):
    """Unique keys (sorted) with per-key sums of each value array."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = [np.bincount(inverse, weights=v, minlength=len(uniq)) for v in values]
    return uniq, sums


def _sorted_by(table, key: str, *names: str):
    order = np.argsort(table[key], kind="stable")
    return [np.asarray(table[n])[order] for n in (key, *names)]


def check_statement(state: State, stmt: Statement, out) -> bool:
    """Recompute one statement's answer from the generated arrays."""
    p = stmt.params
    if stmt.cls == "point_lookup":
        users = state.history("user_base")
        mask = users["imsi"] == p["imsi"]
        return out.num_rows == int(mask.sum()) and np.array_equal(
            np.sort(out["age"]), np.sort(users["age"][mask])
        )
    if stmt.cls in ("range_pruned_agg", "full_groupby"):
        cdr = state.history("cdr_daily")
        mask = np.ones(cdr.num_rows, dtype=bool)
        if stmt.cls == "range_pruned_agg":
            mask = (cdr["day"] > p["lo"]) & (cdr["day"] <= p["hi"])
        imsi, (dur, mb, n) = _group_sum(
            cdr["imsi"][mask],
            cdr["call_dur"][mask],
            cdr["data_mb"][mask],
            np.ones(int(mask.sum())),
        )
        if stmt.cls == "range_pruned_agg":
            got_imsi, got_dur, got_mb = _sorted_by(out, "imsi", "dur", "mb")
            return (
                np.array_equal(got_imsi, imsi)
                and np.allclose(got_dur, dur)
                and np.allclose(got_mb, mb)
            )
        got_imsi, got_dur, got_n = _sorted_by(out, "imsi", "dur", "n")
        return (
            np.array_equal(got_imsi, imsi)
            and np.allclose(got_dur, dur)
            and np.array_equal(got_n, n)
        )
    if stmt.cls == "dim_join_agg":
        users = state.history("user_base")
        mask = users["product_price"] > p["floor"]
        region, (price, n) = _group_sum(
            users["town_id"][mask] % 5,
            users["product_price"][mask],
            np.ones(int(mask.sum())),
        )
        got_region, got_price, got_n = _sorted_by(out, "region", "price", "n")
        return (
            np.array_equal(got_region, region)
            and np.allclose(got_price, price)
            and np.array_equal(got_n, n)
        )
    if stmt.cls == "topn_sort":
        charge = np.sort(state.history("billing")["total_charge"])[::-1]
        return np.array_equal(np.asarray(out["total_charge"]), charge[: p["limit"]])
    if stmt.cls == "count_distinct":
        events = state.history("recharge_events")
        pairs = np.unique(np.stack([events["day"], events["imsi"]]), axis=1)
        day, (n,) = _group_sum(pairs[0], np.ones(pairs.shape[1]))
        got_day, got_n = _sorted_by(out, "day", "n")
        return np.array_equal(got_day, day) and np.array_equal(got_n, n)
    if stmt.cls == "like_scan":
        docs = state.history("complaints")["doc"].tolist()
        return int(out["n"][0]) == sum(p["token"] in doc for doc in docs)
    if stmt.cls == "wide_join6":
        tables = state.world.month(WIDE_JOIN_MONTH).tables
        imsi, charge = _sorted_by(tables["billing"], "imsi", "total_charge")
        events = np.sort(tables["recharge_events"]["imsi"])
        recharges = np.searchsorted(events, imsi, side="right") - np.searchsorted(
            events, imsi, side="left"
        )
        return (
            np.array_equal(np.asarray(out["imsi"]), imsi)
            and np.array_equal(np.asarray(out["total_charge"]), charge)
            and np.array_equal(np.asarray(out["recharge_cnt"]), recharges)
        )
    if stmt.cls == "skewed_multijoin":
        sk = state.skewed
        promo_offers = sk["sk_offers"]["id"][sk["sk_offers"]["kind"] == "promo"]
        promo_cust = np.isin(sk["sk_custs"]["offer"], promo_offers)
        n_cust = sk["sk_custs"].num_rows
        events_per_cust = np.bincount(sk["sk_events"]["cust"], minlength=n_cust)
        calls = sk["sk_calls"]
        fan_out = events_per_cust[calls["cust"]] * promo_cust[calls["cust"]]
        return (
            out.num_rows == 1
            and float(out["total_dur"][0]) == float((calls["dur"] * fan_out).sum())
            and int(out["n"][0]) == int(fan_out.sum())
        )
    raise ValueError(f"no oracle for class {stmt.cls!r}")


# ----------------------------------------------------------------------
# Timed phase
# ----------------------------------------------------------------------


def run_statements(
    state: State, statements: list[Statement], tracer: Tracer, ops: Ops,
    latencies: dict, checked: set,
) -> float:
    """Run one round; returns the seconds spent inside ``engine.query``."""
    spent = 0.0
    for stmt in statements:
        if stmt.phase == "cold":
            state.catalog.clear_cache()
        ops.attempt()
        error = None
        start = time.perf_counter()
        try:
            with tracer.span("dataplat.sql.query", cls=stmt.cls, phase=stmt.phase):
                out = state.engine.query(stmt.sql)
        except ReproError as exc:
            error = exc
        elapsed = time.perf_counter() - start
        spent += elapsed
        if error is not None:
            ops.fail(f"{stmt.cls}: {type(error).__name__}: {error}")
            continue
        latencies.setdefault((stmt.cls, stmt.phase), []).append(elapsed)
        if stmt.cls not in checked:
            checked.add(stmt.cls)
            if not check_statement(state, stmt, out):
                ops.fail(f"oracle: {stmt.cls} differs from the numpy answer")
    return spent


def measure(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, seconds: float
) -> Measured:
    latencies: dict[tuple[str, str], list[float]] = {}
    round_ms: list[np.ndarray] = []
    checked: set[str] = set()
    health_before = copy.copy(state.catalog.store.health)
    per_round = 0

    def one_round(index: int, round_tracer: Tracer) -> float:
        nonlocal per_round
        statements = sql_round(state.world, cfg.seed, index, state.mix_scale)
        per_round = len(statements)
        mine: dict[tuple[str, str], list[float]] = {}
        spent = run_statements(state, statements, round_tracer, ops, mine, checked)
        for key, values in mine.items():
            latencies.setdefault(key, []).extend(values)
        round_ms.append(np.concatenate(list(mine.values())) * 1e3)
        return spent

    walls = run_rounds(tracer, seconds, cfg.min_rounds(MIN_ROUNDS), one_round)
    wall = calmest(walls)
    rounds = len(walls)
    calm_ms = calmest_pool(round_ms, walls, samples_for(95))
    storage = storage_delta(health_before, state.catalog.store.health)
    notes = [
        f"rounds {rounds} x {per_round} statements; wall_s is the fastest round's, "
        f"p50 and p95 are over the {len(calm_ms)} statements of the fastest round(s) "
        f"({len(calm_ms) * 0.05:.0f} samples beyond p95)",
        f"{'class':<18s} {'phase':<5s} {'n':>5s} {'min ms':>9s} {'median':>9s} {'max':>9s}",
    ]
    for (cls, phase), values in sorted(latencies.items()):
        ms = np.asarray(values) * 1e3
        notes.append(
            f"{cls:<18s} {phase:<5s} {len(ms):>5d} {ms.min():>9.2f} "
            f"{np.median(ms):>9.2f} {ms.max():>9.2f}"
        )
    return Measured(
        metrics={
            "wall_s": wall,
            "throughput_per_s": per_round / wall,
            "latency_p50_ms": percentile(calm_ms, 50, strict=cfg.strict),
            "latency_tail_ms": percentile(calm_ms, 95, strict=cfg.strict),
            "stored_bytes_per_user_byte": state.catalog.store.total_bytes
            / state.raw_bytes,
        },
        walls=walls,
        notes=notes,
        detail={
            "latencies": latencies,
            "partitions_pruned": storage["partitions_pruned"] / rounds,
            "chunks_skipped": storage["chunks_skipped"] / rounds,
            "bytes_decoded": storage["bytes_decoded"] / rounds,
            "cache_hit_rate": storage["cache_hit_rate"],
        },
    )


# ----------------------------------------------------------------------
# Layer probes (traced run only)
# ----------------------------------------------------------------------


def _median_ms(tracer: Tracer, name: str, fn, repeats: int = 3, before=None) -> float:
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        times.append(tracer.timed(name, fn)[1])
    return median(times) * 1e3


def layers(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, traced: Measured
) -> dict[str, float]:
    out: dict[str, float] = {
        "datagen.simulate_s": median(tracer.durations("datagen.simulate")),
        "dataplat.catalog.load_world_s": median(
            tracer.durations("dataplat.catalog.load_world")
        ),
        "dataplat.columnar.partitions_pruned": traced.detail["partitions_pruned"],
        "dataplat.columnar.chunks_skipped": traced.detail["chunks_skipped"],
        "dataplat.blockstore.bytes_decoded": traced.detail["bytes_decoded"],
        "dataplat.catalog.cache_hit_rate": traced.detail["cache_hit_rate"],
    }
    for (cls, phase), values in traced.detail["latencies"].items():
        out[f"dataplat.sql.class.{cls}.{phase}_ms"] = median(values) * 1e3

    one_of_each = {
        s.cls: s for s in sql_round(state.world, cfg.seed, 0, state.mix_scale)
    }
    plan_ms = [
        _median_ms(tracer, "dataplat.sql.plan", lambda s=s: state.engine.plan(s.sql))
        for s in one_of_each.values()
    ]
    out["dataplat.sql.plan_ms"] = median(plan_ms)

    catalog = state.catalog
    month = WIDE_JOIN_MONTH
    cdr = catalog.scan("cdr_daily", database=DATABASE)
    full_ms = _median_ms(
        tracer,
        "dataplat.catalog.scan_full",
        lambda: catalog.scan("cdr_daily", database=DATABASE),
        before=catalog.clear_cache,
    )
    out["dataplat.catalog.scan_full_cold_mb_per_s"] = (
        cdr.nbytes / 2**20 / (full_ms / 1e3)
    )
    window = [
        ScanPredicate("day", ">", (month - 1) * DAYS_PER_MONTH),
        ScanPredicate("day", "<=", month * DAYS_PER_MONTH),
    ]
    out["dataplat.catalog.scan_pruned_ms"] = _median_ms(
        tracer,
        "dataplat.catalog.scan_pruned",
        lambda: catalog.scan(
            "cdr_daily", database=DATABASE, columns=["imsi", "call_dur"],
            predicate=window,
        ),
        before=catalog.clear_cache,
    )
    users = state.world.month(month).tables["user_base"]
    out["dataplat.table.join_ms"] = _median_ms(
        tracer, "dataplat.table.join", lambda: cdr.join(users, on=["imsi"])
    )
    out["dataplat.table.group_by_ms"] = _median_ms(
        tracer,
        "dataplat.table.group_by",
        lambda: cdr.group_by(["imsi"], {"dur": ("sum", "call_dur")}),
    )
    out["dataplat.table.sort_by_ms"] = _median_ms(
        tracer, "dataplat.table.sort_by", lambda: cdr.sort_by(["call_dur"])
    )
    return out

