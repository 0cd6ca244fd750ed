"""Feature engineering with the mini data platform's SQL engine.

The paper builds its wide table with Hive/Spark SQL: intermediate aggregates
are materialized as tables, then joined per customer.  This example walks
that path explicitly on the raw simulated tables — the same queries the F1
builder runs internally — and shows the optimizer at work (EXPLAIN, then
EXPLAIN ANALYZE for the rows and time each operator actually took).

Run:  python examples/sql_feature_engineering.py
"""

from __future__ import annotations

from repro import ScaleConfig, TelcoSimulator
from repro.dataplat import Catalog, SQLEngine


def main() -> None:
    scale = ScaleConfig(population=1500, months=3, seed=5)
    print(f"Simulating {scale.population} customers x {scale.months} months ...")
    world = TelcoSimulator(scale).run()

    # Land the raw tables in the mini-HDFS-backed catalog, like the paper's
    # ETL layer does.
    catalog = Catalog()
    world.load_catalog(catalog)
    print(
        f"Catalog holds {len(catalog.tables('telco'))} tables, "
        f"{catalog.store.total_bytes / 1e6:.1f} MB logical / "
        f"{catalog.store.physical_bytes / 1e6:.1f} MB replicated"
    )

    engine = SQLEngine(catalog, database="telco")

    # Step 1: materialize an intermediate aggregate (recharge behaviour).
    print("\n1. CTAS: per-customer recharge aggregate")
    engine.create_table_as(
        "recharge_agg",
        """
        SELECT imsi, COUNT(*) AS recharge_cnt, SUM(amount) AS recharge_amt
        FROM recharge_events
        GROUP BY imsi
        """,
    )
    print(f"   -> {engine.query('SELECT COUNT(*) AS n FROM recharge_agg')['n'][0]} rows")

    # Step 2: daily CDR -> monthly trend features with CASE WHEN.
    print("\n2. CTAS: late-month usage share from the daily CDR")
    engine.create_table_as(
        "daily_trend",
        """
        SELECT imsi,
               SUM(call_dur) AS total_dur,
               SAFE_DIV(
                   SUM(CASE WHEN day % 30 > 20 THEN call_dur ELSE 0 END),
                   SUM(call_dur)
               ) AS late_share
        FROM cdr_daily
        GROUP BY imsi
        """,
    )

    # Step 3: the wide-table join.  user_base and billing hold one row per
    # customer per month, so joining them on imsi alone would pair every
    # month with every other; join the last month's snapshots instead.
    last = f"month={scale.months}"
    for name in ("user_base", "billing"):
        engine.register(
            catalog.load(name, database="telco", partition=last), f"{name}_last"
        )
    wide_sql = """
        SELECT u.imsi, u.age, u.innet_dura, b.balance, b.total_charge,
               d.late_share, r.recharge_cnt
        FROM user_base_last u
        JOIN billing_last b ON u.imsi = b.imsi
        JOIN daily_trend d ON u.imsi = d.imsi
        LEFT JOIN recharge_agg r ON u.imsi = r.imsi
        WHERE u.innet_dura > 6
        ORDER BY b.balance
        LIMIT 5
    """
    print("\n3. Optimized plan for the wide-table join (EXPLAIN):")
    print(engine.explain(wide_sql))

    print(
        f"\n4. Five customers with over 6 months' tenure, lowest {last} "
        "balance first (ORDER BY b.balance):"
    )
    out = engine.query(wide_sql)
    for row in out.rows():
        imsi, age, tenure, balance, charge, late, recharges = row
        print(
            f"   imsi={imsi:<8} age={age:<3} tenure={tenure:>3}mo "
            f"balance={balance:7.2f} late_share={late:.2f} "
            f"recharges={recharges}"
        )

    print(
        "\nNote the pushed-down filter and pruned scan columns in the plan: "
        "the optimizer reads only what the query needs."
    )

    print("\n5. The same join executed and measured (EXPLAIN ANALYZE):")
    for line in engine.query(f"EXPLAIN ANALYZE {wide_sql}")["plan"]:
        print(f"   {line}")


if __name__ == "__main__":
    main()
