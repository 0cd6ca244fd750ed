"""Tour of the mini big-data platform: HDFS, ETL, SQL, sharding.

A guided walk through the substrate layer the churn system runs on —
the pieces the paper gets from Hadoop/Hive/Spark:

1. block store with replication + a datanode failure and recovery;
2. a multi-vendor ETL load (vendor-B dialect → standard schema, with
   reject accounting);
3. a SQL group-by over daily CDRs, and the plan the optimizer chose;
4. SQL over the catalog, including LIKE over search logs;
5. shared-nothing sharding: scatter-gather SQL on 4 shards.

Run:  python examples/platform_tour.py
"""

from __future__ import annotations

import numpy as np

from repro import ScaleConfig, TelcoSimulator
from repro.datagen.records import cs_kpi_etl_job, vendor_b_cs_records
from repro.dataplat import BlockStore, Catalog, SQLEngine


def main() -> None:
    rng = np.random.default_rng(3)

    # ------------------------------------------------------------------
    print("1. Block store: write, kill a datanode, recover")
    store = BlockStore(num_nodes=4, replication=2, block_size=1 << 12)
    payload = bytes(rng.integers(0, 256, size=50_000, dtype=np.uint8))
    store.write("/raw/cdr/2014-01.bin", payload)
    status = store.status("/raw/cdr/2014-01.bin")
    print(
        f"   {status.length} bytes in {status.num_blocks} blocks, "
        f"x{status.replication} replication"
    )
    store.kill_node(0)
    created = store.re_replicate()
    recovered = store.read("/raw/cdr/2014-01.bin") == payload
    print(f"   node 0 died -> {created} replicas re-created, data intact: {recovered}")

    # ------------------------------------------------------------------
    print("\n2. Multi-vendor ETL: vendor-B CS export -> standard cs_kpi")
    world = TelcoSimulator(ScaleConfig(population=1200, months=2, seed=9)).run()
    catalog = Catalog(store)
    raw = world.month(1).tables["cs_kpi"]
    stats = cs_kpi_etl_job().run(
        vendor_b_cs_records(raw, rng, malformed_fraction=0.03), catalog
    )
    print(
        f"   read {stats.rows_read}, loaded {stats.rows_loaded}, "
        f"rejected {stats.rows_rejected} {dict(stats.reject_reasons)}"
    )

    # ------------------------------------------------------------------
    print("\n3. SQL group-by over daily CDRs, and its plan")
    daily_engine = SQLEngine()
    daily_engine.register(world.month(1).tables["cdr_daily"], "cdr_daily")
    daily_sql = (
        "SELECT imsi, COUNT(day) AS active_days, SUM(call_dur) AS total_dur "
        "FROM cdr_daily WHERE call_cnt > 0 GROUP BY imsi"
    )
    summary = daily_engine.query(daily_sql)
    print(f"   {summary.num_rows} customers with at least one calling day")
    print("   plan:")
    for line in daily_engine.explain(daily_sql).splitlines():
        print(f"     {line}")

    # ------------------------------------------------------------------
    print("\n4. SQL over the catalog, with LIKE on search logs")
    engine = SQLEngine(catalog)
    engine.register(world.month(1).tables["search_logs"], "search_logs")
    engine.register(world.month(1).tables["user_base"], "user_base")
    out = engine.query(
        """
        SELECT u.town_id, COUNT(*) AS porting_searchers
        FROM search_logs s JOIN user_base u ON s.imsi = u.imsi
        WHERE s.doc LIKE '%srch_t0_%'
        GROUP BY u.town_id
        ORDER BY porting_searchers DESC
        LIMIT 5
        """
    )
    print("   towns with the most porting-intent searchers:")
    for town, n in zip(out["town_id"], out["porting_searchers"]):
        print(f"     town {town:>2}: {n} customers")

    # ------------------------------------------------------------------
    print("\n5. Shared-nothing sharding: scatter-gather SQL on 4 shards")
    from repro.dataplat import ShardedCatalog, ShardedSQLEngine

    sharded = ShardedSQLEngine(ShardedCatalog(num_shards=4, shard_key="imsi"))
    sharded.register(world.month(1).tables["cdr_monthly"], "cdr")
    rows = sharded.catalog.shard_rows("cdr")
    print(f"   cdr_monthly hash-split on imsi -> per-shard rows {rows}")
    heavy_sql = (
        "SELECT imsi, SUM(voice_dur) AS total_dur, SUM(all_call_cnt) AS n "
        "FROM cdr GROUP BY imsi ORDER BY total_dur DESC, imsi LIMIT 3"
    )
    top = sharded.query(heavy_sql)
    single = SQLEngine()
    single.register(world.month(1).tables["cdr_monthly"], "cdr")
    reference = single.query(heavy_sql)
    identical = all(
        list(top[c]) == list(reference[c]) for c in top.schema.names
    )
    print("   heaviest callers (aggregated shard-local, gathered):")
    for imsi, dur, n in zip(top["imsi"], top["total_dur"], top["n"]):
        print(f"     imsi {imsi}: {dur:.0f} s over {n} calls")
    print(f"   bit-identical to the single-shard engine: {identical}")

    print(
        "\nEverything above — storage, ETL, shuffles, SQL, sharding — is "
        "what the feature pipeline in repro.features uses under the hood."
    )


if __name__ == "__main__":
    main()
