"""Seeded input generators: the program only ever sees what these make.

One ``--seed`` fixes the simulated world, the SQL statement streams, the
vendor record stream and the arrival schedule.  The *composition* of a
stream (how many statements of each class, how many arrivals per step) is
fixed by the workload; the seed picks parameters and order, so two seeds
do comparable work and their timings can be compared.

The skewed join world and the service builder are copied from
``benchmarks/baseline.py`` and ``benchmarks/load_gen.py`` on purpose: the
harness must survive those files changing or going away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import ScaleConfig, TelcoSimulator
from repro.datagen.records import vendor_b_cs_records
from repro.dataplat import Catalog, Table
from repro.features.spec import FeatureMatrix
from repro.ml.forest import RandomForestClassifier
from repro.serve import LoadProfile, arrival_plan

from harness import user_bytes

MONTHS = 9
DAYS_PER_MONTH = 30


def simulate_world(population: int, seed: int):
    scale = ScaleConfig(population=population, months=MONTHS, seed=seed)
    return scale, TelcoSimulator(scale).run()


def persisted_world(population: int, seed: int, tracer, database: str = "telco"):
    """A simulated world loaded into a fresh catalog.

    Returns ``(scale, world, catalog, raw_bytes)``; ``raw_bytes`` is what
    the saved tables hold as plain columns.
    """
    with tracer.span("datagen.simulate"):
        scale, world = simulate_world(population, seed)
    catalog = Catalog()
    with tracer.span("dataplat.catalog.load_world"):
        world.load_catalog(catalog, database=database)
    raw = sum(user_bytes(t) for m in world.months for t in m.tables.values())
    raw += user_bytes(world.final_recharge_period)
    return scale, world, catalog, raw


def towns_table(world) -> Table:
    """A small dimension without a customer id: town → region."""
    towns = np.unique(
        np.concatenate([m.tables["user_base"]["town_id"] for m in world.months])
    ).astype(np.int64)
    return Table.from_arrays(town_id=towns, region=towns % 5)


def whole_history(world, name: str) -> Table:
    """All monthly partitions of one raw table, stacked in month order."""
    out = None
    for month in world.months:
        piece = month.tables[name]
        out = piece if out is None else out.concat_rows(piece)
    return out


# ----------------------------------------------------------------------
# Skewed multi-way join world (copied from baseline._planner_world)
# ----------------------------------------------------------------------

SKEWED_SQL = (
    "SELECT o.kind AS kind, SUM(c.dur) AS total_dur, COUNT(*) AS n "
    "FROM sk_calls c JOIN sk_events e ON c.cust = e.cust "
    "JOIN sk_custs u ON c.cust = u.id "
    "JOIN sk_offers o ON u.offer = o.id "
    "WHERE o.kind = 'promo' GROUP BY o.kind"
)


def skewed_world(seed: int, n_rows: int, n_cust: int) -> dict[str, Table]:
    """Two power-law fact tables, a customer table and a tiny dimension.

    A few heavy-hitter customers dominate both fact tables, so the
    fact-to-fact join ``SKEWED_SQL`` writes first is far larger than
    either input: the statement is in the worst join order.
    """
    rng = np.random.default_rng(seed)
    n_offer = 64

    def skewed_keys(n):
        # The same multiset of keys under every seed, so the join blows up
        # to one size and seeds do equal work; the seed orders the rows.
        uniform = (rng.permutation(n) + 0.5) / n
        return (n_cust * uniform**2).astype(np.int64)

    kinds = np.asarray(["std"] * n_offer, dtype=object)
    kinds[rng.choice(n_offer, size=4, replace=False)] = "promo"
    return {
        "sk_calls": Table.from_arrays(
            cust=skewed_keys(n_rows), dur=rng.integers(0, 3600, size=n_rows)
        ),
        "sk_events": Table.from_arrays(
            cust=skewed_keys(n_rows),
            bytes_dl=rng.integers(0, 10_000, size=n_rows),
        ),
        "sk_custs": Table.from_arrays(
            id=np.arange(n_cust, dtype=np.int64),
            offer=rng.integers(0, n_offer, size=n_cust),
        ),
        "sk_offers": Table.from_arrays(
            id=np.arange(n_offer, dtype=np.int64), kind=kinds
        ),
    }


# ----------------------------------------------------------------------
# SQL statement streams
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    cls: str
    phase: str
    sql: str
    #: What the numpy oracle needs to recompute the answer.
    params: dict


#: Statements of each class in one round: ``(cold, warm)``.  A cold
#: statement runs right after ``clear_cache()``; the warm ones run against
#: a filled cache.  ``skewed_multijoin`` stays rare: one statement of it
#: costs as much as dozens of the others.  The counts put the median of a
#: round inside warm ``range_pruned_agg`` and its p95 inside cold
#: ``full_groupby``, not on a boundary between two classes, where either
#: would jump from run to run.
SQL_CLASS_MIX = {
    "point_lookup": (8, 30),
    "range_pruned_agg": (8, 40),
    "full_groupby": (10, 10),
    "dim_join_agg": (6, 20),
    "topn_sort": (6, 20),
    "count_distinct": (6, 15),
    "like_scan": (6, 12),
    "wide_join6": (4, 10),
    "skewed_multijoin": (1, 3),
}

WIDE_JOIN_MONTH = 8


def _sql_statement(cls: str, phase: str, rng, world) -> Statement:
    if cls == "point_lookup":
        month = int(rng.integers(1, MONTHS + 1))
        imsi = int(rng.choice(world.month(month).imsi))
        return Statement(
            cls, phase,
            f"SELECT imsi, age, product_price FROM user_base WHERE imsi = {imsi}",
            {"imsi": imsi},
        )
    if cls == "range_pruned_agg":
        month = int(rng.integers(1, MONTHS + 1))
        lo = (month - 1) * DAYS_PER_MONTH + int(rng.integers(0, 10))
        hi = month * DAYS_PER_MONTH
        return Statement(
            cls, phase,
            "SELECT imsi, SUM(call_dur) AS dur, SUM(data_mb) AS mb "
            f"FROM cdr_daily WHERE day > {lo} AND day <= {hi} GROUP BY imsi",
            {"lo": lo, "hi": hi},
        )
    if cls == "full_groupby":
        return Statement(
            cls, phase,
            "SELECT imsi, SUM(call_dur) AS dur, COUNT(*) AS n "
            "FROM cdr_daily GROUP BY imsi",
            {},
        )
    if cls == "dim_join_agg":
        floor = round(float(rng.uniform(5.0, 40.0)), 2)
        return Statement(
            cls, phase,
            "SELECT t.region AS region, SUM(u.product_price) AS price, "
            "COUNT(*) AS n FROM user_base u JOIN towns t "
            f"ON u.town_id = t.town_id WHERE u.product_price > {floor} "
            "GROUP BY t.region",
            {"floor": floor},
        )
    if cls == "topn_sort":
        limit = int(rng.integers(10, 51))
        return Statement(
            cls, phase,
            "SELECT imsi, total_charge FROM billing "
            f"ORDER BY total_charge DESC LIMIT {limit}",
            {"limit": limit},
        )
    if cls == "count_distinct":
        return Statement(
            cls, phase,
            "SELECT day, COUNT(DISTINCT imsi) AS n FROM recharge_events "
            "GROUP BY day",
            {},
        )
    if cls == "like_scan":
        token = f"cmpl_t{int(rng.integers(1, 5))}_w{int(rng.integers(0, 30))}"
        return Statement(
            cls, phase,
            f"SELECT COUNT(*) AS n FROM complaints WHERE doc LIKE '%{token}%'",
            {"token": token},
        )
    if cls == "wide_join6":
        m = WIDE_JOIN_MONTH
        return Statement(
            cls, phase,
            "SELECT u.imsi AS imsi, u.age, c.voice_dur, b.total_charge, "
            "p.n_complaints, d.total_call_dur_d, r.recharge_cnt "
            f"FROM user_base_m{m} u JOIN cdr_monthly_m{m} c ON u.imsi = c.imsi "
            f"JOIN billing_m{m} b ON u.imsi = b.imsi "
            f"JOIN complaints_m{m} p ON u.imsi = p.imsi "
            f"JOIN daily_agg_m{m} d ON u.imsi = d.imsi "
            f"LEFT JOIN recharge_agg_m{m} r ON u.imsi = r.imsi "
            "ORDER BY u.imsi",
            {},
        )
    if cls == "skewed_multijoin":
        return Statement(cls, phase, SKEWED_SQL, {})
    raise ValueError(f"unknown statement class {cls!r}")


def sql_round(world, seed: int, round_index: int, scale: float = 1.0) -> list[Statement]:
    """One round of the analyst stream: the cold segment, then the warm one.

    Class counts are fixed (``SQL_CLASS_MIX`` times ``scale``, at least
    one each); the seed picks parameters and the order inside a segment.
    """
    rng = np.random.default_rng([seed, round_index, 1])
    out: list[Statement] = []
    for column, phase in enumerate(("cold", "warm")):
        segment = [
            _sql_statement(cls, phase, rng, world)
            for cls, counts in SQL_CLASS_MIX.items()
            for _ in range(max(1, round(counts[column] * scale)))
        ]
        order = rng.permutation(len(segment))
        out.extend(segment[i] for i in order)
    return out


#: Statements of each class in one sharded round.
SHARDED_CLASSES = (
    "shardkey_groupby",
    "copartitioned_join",
    "global_partial_agg",
    "shuffle_join",
    "count_distinct_fallback",
)


def _sharded_statement(cls: str, month: int) -> Statement:
    lo, hi = (month - 1) * DAYS_PER_MONTH, month * DAYS_PER_MONTH
    if cls == "shardkey_groupby":
        sql = (
            "SELECT imsi, SUM(call_dur) AS dur, COUNT(*) AS n FROM cdr_daily "
            f"WHERE day > {lo} GROUP BY imsi"
        )
    elif cls == "copartitioned_join":
        sql = (
            "SELECT u.imsi AS imsi, SUM(r.amount) AS amt FROM user_base u "
            f"JOIN recharge_events r ON u.imsi = r.imsi WHERE r.day > {lo} "
            "GROUP BY u.imsi"
        )
    elif cls == "global_partial_agg":
        sql = (
            "SELECT day, SUM(call_dur) AS dur, COUNT(*) AS n FROM cdr_daily "
            f"WHERE day <= {hi} GROUP BY day"
        )
    elif cls == "shuffle_join":
        sql = (
            "SELECT t.region AS region, SUM(p.amount) AS amt, COUNT(*) AS n "
            "FROM topups_by_day p JOIN user_base_m8 u ON p.imsi = u.imsi "
            f"JOIN towns t ON u.town_id = t.town_id WHERE p.day > {lo} "
            "GROUP BY t.region"
        )
    elif cls == "count_distinct_fallback":
        sql = (
            "SELECT day, COUNT(DISTINCT imsi) AS n FROM recharge_events "
            f"WHERE day <= {hi} GROUP BY day"
        )
    else:
        raise ValueError(f"unknown sharded statement class {cls!r}")
    return Statement(cls, "warm", sql, {})


def sharded_round(seed: int, round_index: int, per_class: int) -> list[Statement]:
    """One round: ``per_class`` statements of each class, in a seeded order.

    A statement's month decides how many rows it scans, so each class
    walks the months in a seeded order, one step per statement: runs of
    equal length scan equal amounts of data whatever the seed.
    """
    months = np.random.default_rng([seed, 2]).permutation(MONTHS) + 1
    segment = [
        _sharded_statement(
            cls, int(months[(round_index * per_class + step + offset) % MONTHS])
        )
        for offset, cls in enumerate(SHARDED_CLASSES)
        for step in range(per_class)
    ]
    order = np.random.default_rng([seed, round_index, 2]).permutation(len(segment))
    return [segment[i] for i in order]


# ----------------------------------------------------------------------
# Vendor record stream
# ----------------------------------------------------------------------


def vendor_records(world, seed: int) -> dict[int, list[dict]]:
    """Vendor-B ``cs_kpi`` exports per month, about 1 % malformed."""
    rng = np.random.default_rng([seed, 3])
    return {
        data.month: list(vendor_b_cs_records(data.tables["cs_kpi"], rng))
        for data in world.months
    }


def malformed(records: list[dict]) -> int:
    return sum(1 for r in records if "SUBSCRIBER_ID" not in r)


# ----------------------------------------------------------------------
# Online service and arrival schedule
# ----------------------------------------------------------------------

N_FEATURES = 20
ID_BASE = 100_000


def serve_snapshot(population: int, seed: int) -> tuple[FeatureMatrix, np.ndarray]:
    """A synthetic wide-table snapshot and the labels its model trains on."""
    rng = np.random.default_rng([seed, 4])
    values = rng.normal(size=(population, N_FEATURES))
    matrix = FeatureMatrix(
        imsi=(ID_BASE + np.arange(population)).astype(np.int64),
        names=[f"f{i}" for i in range(N_FEATURES)],
        values=values,
    )
    train_n = min(population, 2000)
    labels = (values[:train_n, 0] + 0.3 * rng.normal(size=train_n) > 0).astype(
        np.int64
    )
    return matrix, labels


def train_forest(matrix: FeatureMatrix, labels: np.ndarray, seed: int):
    return RandomForestClassifier(
        n_trees=8, max_depth=8, min_samples_leaf=20, seed=seed
    ).fit(matrix.values[: len(labels)], labels)


LADDER_RATES = (2000, 4000, 8000, 16000, 32000)
#: About a third of this sandbox's capacity, where latency is the batch
#: window plus one batch and nothing is shed unless the host stalls.
REFERENCE_RATE = 4000
OVERLOAD_RATE = 32000
#: Length of a reference or overload slice, in rungs.
SLICE_RUNGS = 0.6


@dataclass(frozen=True)
class Step:
    label: str
    rate_rps: int
    duration_s: float


def serve_schedule(seconds: float) -> list[Step]:
    """Five cycles of: one ladder rung, a reference slice, an overload slice.

    The reference and overload steps are cut into slices spread over the
    whole run, and their metrics are medians over the slices: this
    sandbox's speed wanders on a scale of seconds, and one contiguous
    step would sit inside a single fast or slow spell.  Step lengths scale
    with ``--seconds``: at 10 s a rung lasts one logical second, a slice
    0.6 s, and the schedule replays in about 10 s of wall time.
    """
    rung = seconds / 10.0
    steps: list[Step] = []
    for cycle, rate in enumerate(LADDER_RATES):
        steps += [
            Step(f"ladder_{rate}", rate, rung),
            Step(f"reference_{cycle}", REFERENCE_RATE, SLICE_RUNGS * rung),
            Step(f"overload_{cycle}", OVERLOAD_RATE, SLICE_RUNGS * rung),
        ]
    return steps


def step_arrivals(step: Step, index: int, seed: int, customer_ids: np.ndarray):
    """Seeded Poisson arrivals of one step, times relative to its start."""
    profile = LoadProfile(
        rate_rps=float(step.rate_rps),
        duration_s=step.duration_s,
        population=len(customer_ids),
        seed=seed * 1000 + index,
    )
    return arrival_plan(profile, customer_ids=customer_ids)
