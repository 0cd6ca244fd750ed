"""``ingest_write``: the write side of the catalog under one writer.

Closed loop, one writer, default :class:`Durability`.  A round starts
from a fresh :class:`BlockStore` and ``Catalog``: vendor-B ``cs_kpi``
records go through ``ETLJob.run`` row by row (about 1 % malformed), the
other monthly partitions through ``Catalog.save``; the last three months
are overwritten, month 1 is dropped, the store is reopened with
``Catalog.open`` and everything is read back.  Journaling, fsync count
and encoding cost live only here; ``ml``, ``features`` and ``serve`` do
nothing.

Read-back column digests must equal the input's; the ETL counters must
add up and the quarantine must hold exactly the malformed records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.records import cs_kpi_etl_job
from repro.dataplat import BlockStore, Catalog
from repro.dataplat.etl import QUARANTINE_SUFFIX

from harness import (
    Measured,
    Ops,
    RunConfig,
    Tracer,
    calmest,
    calmest_pool,
    digest,
    median,
    percentile,
    run_rounds,
    samples_for,
    user_bytes,
)
from inputs import MONTHS, malformed, simulate_world, vendor_records

POPULATION = 1500
SMOKE_POPULATION = 200
DATABASE = "telco"
ETL_TABLE = "cs_kpi"
#: p95 needs 200 partition saves and a round has about 120; the fastest
#: of at least three rounds is reported.
MIN_ROUNDS = 3
OVERWRITE_MONTHS = (7, 8, 9)
DROP_MONTH = 1

#: Per-layer metrics this workload reports; ``layers`` returns exactly these.
LAYER_METRICS = frozenset(
    {
        "datagen.simulate_s",
        "dataplat.etl.rows_per_s",
        "dataplat.etl.rejected_share",
        "dataplat.catalog.save_ms_p50",
        "dataplat.catalog.save_mb_per_s",
        "dataplat.catalog.overwrite_ms_p50",
        "dataplat.catalog.drop_partition_ms",
        "dataplat.catalog.readback_mb_per_s",
        "dataplat.blockstore.write_mb_per_s",
        "dataplat.journal.fsyncs_per_save",
        "dataplat.journal.reopen_ms",
        "dataplat.journal.reopen_lost_commits",
        "dataplat.columnar.encoded_bytes_per_user_byte",
        "dataplat.blockstore.physical_bytes_per_user_byte",
    }
)


@dataclass
class State:
    world: object
    #: month → vendor records of ``cs_kpi``.
    records: dict
    #: ``(table, month)`` → table, everything saved directly.
    partitions: dict
    #: ``(table, month)`` → digest of its columns, for the read-back check.
    digests: dict
    #: Raw bytes of what is live after a round (month 1 dropped).
    live_bytes: int


def setup(cfg: RunConfig, tracer: Tracer) -> State:
    population = cfg.size(POPULATION, SMOKE_POPULATION)
    with tracer.span("datagen.simulate"):
        _scale, world = simulate_world(population, cfg.seed)
    records = vendor_records(world, cfg.seed)
    partitions = {
        (name, data.month): table
        for data in world.months
        for name, table in data.tables.items()
        if name != ETL_TABLE
    }
    partitions[("recharge_period", MONTHS + 1)] = world.final_recharge_period
    digests = {key: _table_digest(table) for key, table in partitions.items()}
    live = sum(
        user_bytes(t) for (_, month), t in partitions.items() if month != DROP_MONTH
    )
    live += sum(
        user_bytes(d.tables[ETL_TABLE]) for d in world.months if d.month != DROP_MONTH
    )
    return State(world, records, partitions, digests, live)


def _table_digest(table) -> str:
    return digest(*(table.column(n) for n in table.schema.names))


def _partition(month: int) -> str:
    return f"month={month}"


def one_round(state: State, tracer: Tracer, ops: Ops, detail: dict) -> float:
    """One full write cycle; returns the seconds spent in program calls."""
    store = BlockStore()
    catalog = Catalog(store)
    catalog.create_database(DATABASE)
    spent = 0.0

    # 1. Row-at-a-time ETL of the vendor export.
    for month, records in state.records.items():
        stats, elapsed = tracer.timed(
            "dataplat.etl.run",
            lambda r=records, m=month: cs_kpi_etl_job().run(
                r, catalog, database=DATABASE, partition=_partition(m)
            ),
        )
        spent += elapsed
        detail["etl_s"].append(elapsed)
        detail["etl_rows"] += stats.rows_read
        detail["etl_rejected"] += stats.rows_rejected
        detail["rows"] += stats.rows_loaded
        ops.attempt(stats.rows_read)
        ops.check(
            "ETL rows_read = rows_loaded + rows_rejected",
            stats.rows_read == stats.rows_loaded + stats.rows_rejected,
        )
        ops.check(
            "quarantine holds exactly the malformed records",
            stats.rows_quarantined == malformed(records),
        )

    # 2. Direct partition saves, then 3. overwrite of the last months.
    def save(key, kind: str) -> None:
        nonlocal spent
        name, month = key
        table = state.partitions[key]
        fsyncs = store.health.fsyncs
        _, elapsed = tracer.timed(
            f"dataplat.catalog.{kind}",
            lambda: catalog.save(
                table, name, database=DATABASE, partition=_partition(month)
            ),
        )
        spent += elapsed
        ops.attempt()
        detail[f"{kind}_s"].append(elapsed)
        detail["save_bytes"] += user_bytes(table)
        detail["fsyncs"].append(store.health.fsyncs - fsyncs)
        detail["rows"] += table.num_rows

    for key in state.partitions:
        save(key, "save")
    detail["encoded_bytes"].append(store.total_bytes)
    for key in state.partitions:
        if key[1] in OVERWRITE_MONTHS:
            save(key, "overwrite")

    # 4. Retention: drop the oldest month of every table.
    for name in catalog.tables(DATABASE):
        if _partition(DROP_MONTH) in catalog.partitions(name, DATABASE):
            _, elapsed = tracer.timed(
                "dataplat.catalog.drop_partition",
                lambda n=name: catalog.drop_partition(
                    n, _partition(DROP_MONTH), database=DATABASE
                ),
            )
            spent += elapsed
            ops.attempt()
            detail["drop_s"].append(elapsed)

    # 5. Reopen from the store alone, as a restarted process would.
    reopened, elapsed = tracer.timed(
        "dataplat.journal.reopen", lambda: Catalog.open(store)
    )
    spent += elapsed
    ops.attempt()
    detail["reopen_s"].append(elapsed)
    # A clean overwrite followed by open reports lost commits today;
    # recorded as a count, not asserted either way.
    detail["lost_commits"].append(
        reopened.last_recovery.counters().get("recovery.lost_commits", 0)
    )

    # 6. Full read-back through the reopened catalog.
    read_bytes = 0
    read_s = 0.0
    for name in sorted(reopened.tables(DATABASE)):
        if name.endswith(QUARANTINE_SUFFIX):
            continue
        for partition in reopened.partitions(name, DATABASE):
            month = int(partition.split("=")[1])
            table, elapsed = tracer.timed(
                "dataplat.catalog.readback",
                lambda n=name, p=partition: reopened.load(
                    n, database=DATABASE, partition=p
                ),
            )
            read_s += elapsed
            read_bytes += user_bytes(table)
            ops.attempt()
            if month == DROP_MONTH:
                ops.fail(f"{name}/{partition} survived drop_partition")
            elif name == ETL_TABLE:
                _check_etl_partition(state, month, table, ops)
            elif _table_digest(table) != state.digests[(name, month)]:
                ops.fail(f"read-back of {name}/{partition} differs from the input")
    spent += read_s
    detail["readback_s"].append(read_s)
    detail["readback_bytes"].append(read_bytes)
    detail["total_bytes"].append(store.total_bytes)
    detail["physical_bytes"].append(store.physical_bytes)
    return spent


def _check_etl_partition(state: State, month: int, loaded, ops: Ops) -> None:
    """The loaded ``cs_kpi`` rows are the well-formed input rows, in order."""
    source = state.world.month(month).tables[ETL_TABLE]
    kept = np.asarray(
        ["SUBSCRIBER_ID" in record for record in state.records[month]], dtype=bool
    )
    ok = loaded.num_rows == int(kept.sum()) and all(
        np.allclose(loaded[name], source[name][kept], rtol=1e-12)
        for name in source.schema.names
    )
    if not ok:
        ops.fail(f"ETL-loaded {ETL_TABLE}/month={month} differs from the input")


def _new_detail() -> dict:
    lists = (
        "etl_s", "save_s", "overwrite_s", "drop_s", "reopen_s", "readback_s",
        "readback_bytes", "fsyncs", "lost_commits", "encoded_bytes",
        "total_bytes", "physical_bytes",
    )
    detail: dict = {name: [] for name in lists}
    detail.update(etl_rows=0, etl_rejected=0, rows=0, save_bytes=0)
    return detail


def measure(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, seconds: float
) -> Measured:
    detail = _new_detail()
    round_ms: list[np.ndarray] = []

    def timed_round(_index: int, round_tracer: Tracer) -> float:
        done = len(detail["save_s"]), len(detail["overwrite_s"])
        spent = one_round(state, round_tracer, ops, detail)
        mine = detail["save_s"][done[0]:] + detail["overwrite_s"][done[1]:]
        round_ms.append(np.asarray(mine) * 1e3)
        return spent

    walls = run_rounds(tracer, seconds, cfg.min_rounds(MIN_ROUNDS), timed_round)
    wall = calmest(walls)
    rounds = len(walls)
    saves_ms = calmest_pool(round_ms, walls, samples_for(95))
    return Measured(
        metrics={
            "wall_s": wall,
            "throughput_per_s": detail["rows"] / rounds / wall,
            "latency_p50_ms": percentile(saves_ms, 50, strict=cfg.strict),
            "latency_tail_ms": percentile(saves_ms, 95, strict=cfg.strict),
            "stored_bytes_per_user_byte": median(detail["total_bytes"])
            / state.live_bytes,
        },
        walls=walls,
        notes=[
            f"rounds {rounds}; wall_s is the fastest round's, p50 and p95 are over the "
            f"{len(saves_ms)} partition saves of the fastest rounds "
            f"({len(saves_ms) * 0.05:.0f} samples beyond p95); "
            f"{detail['rows'] // rounds} rows committed per round",
            f"reopen reported lost_commits {detail['lost_commits']}",
        ],
        detail=detail | {"rounds": rounds},
    )


# ----------------------------------------------------------------------
# Layer probes (traced run only)
# ----------------------------------------------------------------------


def layers(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, traced: Measured
) -> dict[str, float]:
    d = traced.detail
    mib = 2**20
    saves = len(d["save_s"]) + len(d["overwrite_s"])
    all_save_s = sum(d["save_s"]) + sum(d["overwrite_s"])

    # The raw device under the catalog: the same encoded bytes written
    # straight to a block store, no journal, no encoding.
    table = state.partitions[("cdr_daily", MONTHS)]
    payload = table.to_bytes()
    raw_store = BlockStore()
    writes = [
        tracer.timed(
            "dataplat.blockstore.write",
            lambda i=i: raw_store.write(f"/bench/raw-{i}", payload),
        )[1]
        for i in range(5)
    ]
    return {
        "datagen.simulate_s": median(tracer.durations("datagen.simulate")),
        "dataplat.etl.rows_per_s": d["etl_rows"] / sum(d["etl_s"]),
        "dataplat.etl.rejected_share": d["etl_rejected"] / d["etl_rows"],
        "dataplat.catalog.save_ms_p50": median(d["save_s"]) * 1e3,
        "dataplat.catalog.save_mb_per_s": d["save_bytes"] / mib / all_save_s,
        "dataplat.catalog.overwrite_ms_p50": median(d["overwrite_s"]) * 1e3,
        "dataplat.catalog.drop_partition_ms": median(d["drop_s"]) * 1e3,
        "dataplat.catalog.readback_mb_per_s": sum(d["readback_bytes"])
        / mib
        / sum(d["readback_s"]),
        "dataplat.blockstore.write_mb_per_s": len(payload) / mib / median(writes),
        "dataplat.journal.fsyncs_per_save": sum(d["fsyncs"]) / saves,
        "dataplat.journal.reopen_ms": median(d["reopen_s"]) * 1e3,
        "dataplat.journal.reopen_lost_commits": median(d["lost_commits"]),
        "dataplat.columnar.encoded_bytes_per_user_byte": median(d["encoded_bytes"])
        / (
            sum(user_bytes(t) for t in state.partitions.values())
            + sum(user_bytes(m.tables[ETL_TABLE]) for m in state.world.months)
        ),
        "dataplat.blockstore.physical_bytes_per_user_byte": median(d["physical_bytes"])
        / state.live_bytes,
    }
