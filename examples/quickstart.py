"""Quickstart: simulate a telco world, train the churn model, rank churners.

Runs the paper's core loop end-to-end on a small synthetic world:

1. simulate 9 months of BSS/OSS data for a few thousand prepaid customers;
2. build the full 150-feature wide table (all families F1..F9);
3. train the deployed configuration (Random Forest, weighted instances,
   4 months of training data) through one Figure-6 sliding window;
4. print the paper's four metrics and the top of the potential-churner list.

Run:  python examples/quickstart.py

Set ``REPRO_TRACE=trace.json`` to trace the run: raw tables are then served
through a catalog over the block store (so storage reads are visible), the
whole window runs under a tracer, and the span tree — blockstore reads,
SQL operators, every built feature family — is written as
JSON.  Render it with ``python scripts/trace_report.py trace.json``.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np

from repro import ChurnPipeline, ModelConfig, ScaleConfig, TelcoSimulator
from repro.core.window import WindowSpec
from repro.dataplat import observability
from repro.dataplat.catalog import Catalog
from repro.dataplat.resilience import CatalogTableSource
from repro.dataplat.sql import SQLEngine


def _build_pipeline(world, scale, through_catalog: bool) -> ChurnPipeline:
    table_source = None
    if through_catalog:
        # Persist the raw tables and read them back through the block store,
        # as the production system would — every read shows up in the trace.
        catalog = Catalog()
        world.load_catalog(catalog)
        # Saves warm the decoded-table cache; drop it so the first feature
        # build actually reads blocks (and the trace shows the reads).
        catalog.clear_cache()
        table_source = CatalogTableSource(catalog).tables_for
    return ChurnPipeline(
        world,
        scale,
        model=ModelConfig(n_trees=25, min_samples_leaf=25),
        imbalance="weighted",
        seed=0,
        table_source=table_source,
    )


def _monthly_minutes(world, month: int) -> float:
    """Total call minutes of one month, as a SQL aggregate."""
    engine = SQLEngine()
    engine.register(world.month(month).tables["cdr_daily"], "cdr_daily")
    out = engine.query("SELECT SUM(call_dur) AS minutes FROM cdr_daily")
    return float(out["minutes"][0])


def main() -> None:
    trace_path = os.environ.get("REPRO_TRACE")
    tracer = observability.Tracer() if trace_path else None

    scale = ScaleConfig(population=3000, months=9, seed=42)
    print(f"Simulating {scale.population} customers x {scale.months} months ...")
    world = TelcoSimulator(scale).run()

    rates = [f"{m.churn_rate:.1%}" for m in world.months]
    print(f"monthly churn rates: {', '.join(rates)}")

    if tracer is not None:
        previous = observability.set_tracer(tracer)
    try:
        pipeline = _build_pipeline(world, scale, through_catalog=bool(tracer))

        minutes = _monthly_minutes(world, 8)
        print(f"month-8 call volume: {minutes / 60:,.0f} hours")

        # Figure 6 window: train on months 4-7 (labeled by months 5-8),
        # score month 8's active customers, evaluate on month-9 churn.
        print("Training on months 4-7, predicting month-9 churners ...")
        result = pipeline.run_window(WindowSpec((4, 5, 6, 7), 8))
    finally:
        if tracer is not None:
            observability.set_tracer(previous)

    print(f"\nAUC     = {result.auc:.3f}   (paper Table 3: 0.932)")
    print(f"PR-AUC  = {result.pr_auc:.3f}   (paper Table 3: 0.716)")
    for u in sorted(result.precision_at):
        print(
            f"top {u:>6} (paper scale): "
            f"precision={result.precision_at[u]:.3f} "
            f"recall={result.recall_at[u]:.3f}"
        )

    # The deployed system's monthly artifact: the ranked churner list.
    order = np.argsort(-result.scores)
    print("\nTop 10 predicted churners (slot, score, actually churned):")
    for row in order[:10]:
        slot = result.test_slots[row]
        print(
            f"  customer slot {slot:>5}  "
            f"likelihood {result.scores[row]:.3f}  "
            f"churned={bool(result.labels[row])}"
        )

    if tracer is not None:
        out = pathlib.Path(trace_path)
        out.write_text(tracer.to_json())
        n_spans = sum(1 for _ in tracer.iter_spans())
        print(
            f"\nwrote {n_spans} spans to {out} "
            f"(render: python scripts/trace_report.py {out})"
        )


if __name__ == "__main__":
    main()
