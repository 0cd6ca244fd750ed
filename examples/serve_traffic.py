"""Online churn scoring: a day of traffic with a no-downtime model swap.

The batch side of the platform ranks churners once per window; the serving
side answers "how likely is *this* customer to churn, right now?" at call
time — the CRM asks while the subscriber is on the line.  This example
wires the whole online path together:

1. materialize a feature snapshot into the :class:`FeatureStore`
   (id-range-bucketed catalog partitions, so point lookups ride the same
   zone-map pruning the analytical scans use);
2. train a random forest, publish it to the :class:`ModelRegistry`, and
   drive a seeded morning of open-loop traffic through the micro-batching
   :class:`ScoringService`;
3. swap in a retrained ``v2`` model *between requests*, the way the
   monthly retrain does: the forest is published durably to the block
   store, then activated from its stored bytes — atomically, with the
   memoized score cache invalidated, no request ever scored by a mix of
   versions;
4. drive the afternoon against ``v2``, then fold the latency histogram
   into SLO gauges, sink one telemetry window, and let the watchtower
   evaluate the serving SLO rules (p99 budget, shed rate, failed swaps).

Run:  python examples/serve_traffic.py
"""

from __future__ import annotations

import numpy as np

from repro.dataplat import observability
from repro.dataplat.catalog import Catalog
from repro.dataplat.telemetry import TelemetrySink, TelemetryWarehouse
from repro.core.watchtower import Watchtower
from repro.features.spec import FeatureMatrix
from repro.ml.forest import RandomForestClassifier
from repro.serve import (
    ArrivalPlan,
    FeatureStore,
    LoadProfile,
    ModelRegistry,
    ScoringService,
    ServeConfig,
    arrival_plan,
    drive,
    serve_rules,
)

POPULATION = 3000
N_FEATURES = 12
SEED = 42


def make_snapshot() -> FeatureMatrix:
    rng = np.random.default_rng(SEED)
    return FeatureMatrix(
        imsi=(500_000 + np.arange(POPULATION)).astype(np.int64),
        names=[f"f{i}" for i in range(N_FEATURES)],
        values=rng.normal(size=(POPULATION, N_FEATURES)),
    )


def train_forest(matrix: FeatureMatrix, seed: int) -> RandomForestClassifier:
    rng = np.random.default_rng(seed)
    n = min(POPULATION, 2000)
    y = (
        matrix.values[:n, 0] + 0.3 * rng.normal(size=n) > 0
    ).astype(np.int64)
    return RandomForestClassifier(
        n_trees=8, max_depth=8, min_samples_leaf=20, seed=seed
    ).fit(matrix.values[:n], y)


def main() -> None:
    observability.set_metrics(observability.MetricsRegistry())
    snapshot = make_snapshot()

    print(f"Materializing {POPULATION} customers x {N_FEATURES} features ...")
    store = FeatureStore(cache_rows=POPULATION)
    info = store.materialize(snapshot, "day0", buckets=8)
    print(f"  {info.n_rows} rows in {info.buckets} id-range buckets\n")

    registry = ModelRegistry()
    registry.publish("v1", train_forest(snapshot, seed=1), activate=True)
    service = ScoringService(
        store,
        registry,
        ServeConfig(max_batch=64, batch_window_s=0.005, max_queue_depth=1024),
    )

    print("Morning traffic on v1 (4000 req/s offered, seeded open loop):")
    morning = drive(
        service,
        arrival_plan(
            LoadProfile(
                rate_rps=4000, duration_s=1.0, population=POPULATION, seed=7
            ),
            customer_ids=snapshot.imsi,
        ),
    )
    print("  " + morning.render().replace("\n", "\n  ") + "\n")

    print("Swapping in retrained v2 (atomic, score cache invalidated) ...")
    models = Catalog()
    registry.publish_durable(models, "v2", train_forest(snapshot, seed=2))
    registry.activate_from_store(models, "v2")
    print(f"  active model: {registry.active_version} (loaded from the block store)\n")

    print("Afternoon traffic on v2:")
    plan = arrival_plan(
        LoadProfile(
            rate_rps=4000, duration_s=1.0, population=POPULATION, seed=8
        ),
        customer_ids=snapshot.imsi,
    )
    # The service clock is monotone: shift the afternoon past the morning.
    plan = ArrivalPlan(
        times_s=plan.times_s + 10.0,
        customer_ids=plan.customer_ids,
        deadline_s=plan.deadline_s,
    )
    afternoon = drive(service, plan)
    print("  " + afternoon.render().replace("\n", "\n  ") + "\n")

    slo = service.slo_snapshot()
    print("SLO snapshot (histogram-derived, conservative):")
    for key, value in slo.items():
        print(f"  {key:<22} {value:.4f}")

    warehouse = TelemetryWarehouse()
    sink = TelemetrySink(
        warehouse, "serve-day0", metrics=observability.get_metrics()
    )
    sink.record_window(0)
    alerts = Watchtower(warehouse, serve_rules()).evaluate("serve-day0", 0)
    print("\nWatchtower serve rules:")
    if alerts:
        for alert in alerts:
            print("  " + alert.render())
    else:
        print("  all clear — p99 within budget, no shedding, no failed swaps")


if __name__ == "__main__":
    main()
