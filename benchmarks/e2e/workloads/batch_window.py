"""``batch_window``: the paper's own loop, one Figure-6 window at a time.

Closed loop, one caller.  A round is one window: train on months 4–7,
score month 8, from a fresh :class:`ChurnPipeline` whose raw tables come
from the catalog the world was loaded into (cache cleared first, so each
window decodes its months again).  ``ml`` and ``features`` do almost all
the work; ``dataplat.sql`` a few percent; ``serve`` none.

The untraced run calls ``run_window``.  The traced run drives the same
window stage by stage through the public calls ``run_window`` makes, one
bench-side span per stage, and must reproduce the untraced score digest.
The untraced run also holds the window's PR-AUC against the value recorded
for its seed (``reference/batch_window_quality.json``).
"""

from __future__ import annotations

import copy
import json
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from repro import ChurnPipeline, ChurnPredictor
from repro.core.window import WindowSpec
from repro.dataplat import Catalog, CatalogTableSource
from repro.features import ALL_CATEGORIES
from repro.ml.metrics import pr_auc, roc_auc
from repro.ml.sampling import rebalance

from harness import (
    Measured,
    Ops,
    RunConfig,
    Tracer,
    calmest,
    digest,
    median,
    run_rounds,
    split_walls,
    storage_delta,
)
from inputs import persisted_world

POPULATION = 1500
SMOKE_POPULATION = 200
SPEC = WindowSpec((4, 5, 6, 7), 8)
WINDOW_MONTHS = (*SPEC.train_months, SPEC.test_month)
MIN_ROUNDS = 4
#: The simulated churn signal is strong; a window below this is broken.
AUC_FLOOR = 0.85
#: Recorded AUC and PR-AUC per seed (``record_quality.py`` writes it).
QUALITY_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "reference"
    / "batch_window_quality.json"
)
#: PR-AUC may fall this far below a seed's recorded value.
PR_AUC_TOLERANCE = 0.005
#: Gate for a seed without a recorded value (recorded seeds: 0.43 to 0.74).
PR_AUC_FLOOR = 0.40

#: Per-layer metrics this workload reports; ``layers`` returns exactly these.
LAYER_METRICS = frozenset(
    {
        "datagen.simulate_s",
        "dataplat.catalog.load_world_s",
        "core.labeling.labels_s",
        "features.fit_extractors_s",
        "features.assemble_s",
        "ml.sampling.rebalance_s",
        "ml.forest.fit_s",
        "ml.forest.predict_s",
        "ml.metrics.eval_s",
        "ml.metrics.pr_auc",
        "ml.forest.train_rows",
        "features.columns",
        "dataplat.blockstore.bytes_decoded",
        "dataplat.catalog.cache_hit_rate",
        "core.pipeline.unattributed_s",
    }
    | {f"features.{category}_s" for category in ALL_CATEGORIES}
)


@dataclass
class State:
    scale: object
    world: object
    catalog: Catalog
    raw_bytes: int


def setup(cfg: RunConfig, tracer: Tracer) -> State:
    population = cfg.size(POPULATION, SMOKE_POPULATION)
    return State(*persisted_world(population, cfg.seed, tracer))


def _fresh_pipeline(state: State) -> ChurnPipeline:
    state.catalog.clear_cache()
    return ChurnPipeline(
        state.world,
        state.scale,
        table_source=CatalogTableSource(state.catalog).tables_for,
        store=state.catalog.store,
    )


def _whole_window(state: State):
    result = _fresh_pipeline(state).run_window(SPEC)
    return result.scores, result.auc, result.pr_auc, {}


def _staged_window(state: State, tracer: Tracer):
    """``run_window`` taken apart: same calls, same order of effects."""
    pipeline = _fresh_pipeline(state)
    builder = pipeline.builder
    lead = SPEC.lead
    with tracer.span("core.labeling.labels"):
        labels = {m: pipeline.labels(m + lead - 1) for m in WINDOW_MONTHS}
    # fit_extractors builds the F1 blocks of the training months itself;
    # building them first (they are cached) keeps F1 time out of its span.
    for month in SPEC.train_months:
        with tracer.span("features.F1", month=month):
            builder.category("F1", month)
    with tracer.span("features.fit_extractors"):
        builder.fit_extractors(
            list(SPEC.train_months), {m: labels[m] for m in SPEC.train_months}
        )
    for category in ALL_CATEGORIES:
        for month in WINDOW_MONTHS:
            with tracer.span(f"features.{category}", month=month):
                builder.category(category, month)
    with tracer.span("features.assemble"):
        x_parts, y_parts = [], []
        for month in SPEC.train_months:
            block = builder.features(month, ALL_CATEGORIES)
            mask = pipeline.windows.eligible_mask(SPEC, month)
            x_parts.append(block.values[mask])
            y_parts.append(labels[month][mask])
        x_train = np.vstack(x_parts)
        y_train = np.concatenate(y_parts).astype(np.int64)
        test_block = builder.features(SPEC.test_month, ALL_CATEGORIES)
        test_mask = pipeline.windows.eligible_mask(SPEC, SPEC.test_month)
        x_test = test_block.values[test_mask]
        y_test = labels[SPEC.test_month][test_mask].astype(np.int64)
    with tracer.span("ml.sampling.rebalance"):
        x_bal, y_bal, weights = rebalance(
            x_train, y_train, pipeline.imbalance, np.random.default_rng(pipeline.seed)
        )
    with tracer.span("ml.forest.fit"):
        predictor = ChurnPredictor(
            classifier=pipeline.classifier, config=pipeline.model, seed=pipeline.seed
        ).fit(x_bal, y_bal, sample_weight=weights)
    with tracer.span("ml.forest.predict"):
        scores = predictor.predict_proba(x_test)
    with tracer.span("ml.metrics.eval"):
        auc, prauc = roc_auc(y_test, scores), pr_auc(y_test, scores)
    counts = {"train_rows": len(y_bal), "columns": x_train.shape[1]}
    return scores, auc, prauc, counts


def check_quality(cfg: RunConfig, ops: Ops, prauc: float) -> str:
    """The paper's headline number must hold: PR-AUC against its record.

    A seed of the recorded set has an exact PR-AUC (the window is
    deterministic); a faster forest may lose ``PR_AUC_TOLERANCE`` of it.
    Any other seed or population only has the floor.
    """
    if cfg.smoke:
        return "smoke size: PR-AUC not gated"
    doc = json.loads(QUALITY_PATH.read_text(encoding="utf-8"))
    comparable = (
        cfg.population is None
        and doc["population"] == POPULATION
        and doc["window"] == str(SPEC)
    )
    recorded = doc["seeds"].get(str(cfg.seed)) if comparable else None
    if recorded is None:
        ops.check(f"PR-AUC {prauc:.4f} > floor {PR_AUC_FLOOR}", prauc > PR_AUC_FLOOR)
        return f"no recorded PR-AUC for seed {cfg.seed} at this size: floor {PR_AUC_FLOOR} only"
    ops.check(
        f"PR-AUC {prauc:.4f} >= recorded {recorded['pr_auc']:.4f} - {PR_AUC_TOLERANCE}",
        prauc >= recorded["pr_auc"] - PR_AUC_TOLERANCE,
    )
    return f"PR-AUC gated against the recorded {recorded['pr_auc']:.4f} of seed {cfg.seed}"


def measure(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, seconds: float
) -> Measured:
    digests, aucs, praucs, counts = [], [], [], {}
    health_before = copy.copy(state.catalog.store.health)

    def one_round(_index: int, round_tracer: Tracer) -> float:
        start = time.perf_counter()
        with round_tracer.span("core.pipeline.window"):
            if round_tracer.enabled:
                scores, auc, prauc, stage_counts = _staged_window(state, round_tracer)
            else:
                scores, auc, prauc, stage_counts = _whole_window(state)
        wall = time.perf_counter() - start
        ops.check(f"window AUC {auc:.3f} > {AUC_FLOOR}", auc > AUC_FLOOR)
        digests.append(digest(scores))
        aucs.append(auc)
        praucs.append(prauc)
        counts.update(stage_counts)
        return wall

    walls = run_rounds(tracer, seconds, cfg.min_rounds(MIN_ROUNDS), one_round)
    # Staged and whole windows alike: the traced run reproduces the digest.
    ops.check("every window of a run scores identically", len(set(digests)) == 1)
    quality_note = check_quality(cfg, ops, praucs[0])
    wall = calmest(walls)
    customer_months = state.world.population.size * len(WINDOW_MONTHS)
    storage = storage_delta(health_before, state.catalog.store.health)
    return Measured(
        metrics={
            "wall_s": wall,
            "throughput_per_s": customer_months / wall,
            # One operation per round: the latencies are aliases of wall_s,
            # there because every workload reports every metric.
            "latency_p50_ms": wall * 1e3,
            "latency_tail_ms": wall * 1e3,
            "stored_bytes_per_user_byte": state.catalog.store.total_bytes
            / state.raw_bytes,
        },
        walls=walls,
        notes=[
            f"windows {len(walls)}: fastest {wall:.3f} s, median {median(walls):.3f}, "
            f"max {max(walls):.3f}; latency_p50_ms and latency_tail_ms repeat "
            f"wall_s (no percentile of so few windows has ten samples beyond it)",
            f"AUC {aucs[0]:.4f}, PR-AUC {praucs[0]:.4f}, score digest {digests[0]}",
            quality_note,
        ],
        detail={
            "pr_auc": praucs[0],
            "counts": counts,
            "bytes_decoded": storage["bytes_decoded"] / len(walls),
            "cache_hit_rate": storage["cache_hit_rate"],
        },
    )


def layers(
    state: State, cfg: RunConfig, tracer: Tracer, ops: Ops, measured: Measured
) -> dict[str, float]:
    rounds = len(tracer.durations("core.pipeline.window"))
    totals = tracer.totals(under="core.pipeline.window")

    def per_window(span_name: str) -> float:
        return totals.get(span_name, {"total_s": 0.0})["total_s"] / rounds

    out = {
        "datagen.simulate_s": median(tracer.durations("datagen.simulate")),
        "dataplat.catalog.load_world_s": median(
            tracer.durations("dataplat.catalog.load_world")
        ),
        "core.labeling.labels_s": per_window("core.labeling.labels"),
        "features.fit_extractors_s": per_window("features.fit_extractors"),
        "features.assemble_s": per_window("features.assemble"),
        "ml.sampling.rebalance_s": per_window("ml.sampling.rebalance"),
        "ml.forest.fit_s": per_window("ml.forest.fit"),
        "ml.forest.predict_s": per_window("ml.forest.predict"),
        "ml.metrics.eval_s": per_window("ml.metrics.eval"),
        "ml.metrics.pr_auc": measured.detail["pr_auc"],
        "ml.forest.train_rows": measured.detail["counts"]["train_rows"],
        "features.columns": measured.detail["counts"]["columns"],
        "dataplat.blockstore.bytes_decoded": measured.detail["bytes_decoded"],
        "dataplat.catalog.cache_hit_rate": measured.detail["cache_hit_rate"],
    }
    for category in ALL_CATEGORIES:
        out[f"features.{category}_s"] = per_window(f"features.{category}")
    # What run_window spends outside the staged calls: the fastest whole
    # window minus the fastest staged sum, near 0 if the stages above are
    # the whole window.
    staged = [
        sum(s.duration for s in tracer.spans if s.parent == window.span_id)
        for window in tracer.spans
        if window.name == "core.pipeline.window"
    ]
    whole_wall, _staged_wall = split_walls(tracer, measured.walls)
    out["core.pipeline.unattributed_s"] = whole_wall - calmest(staged)
    return out
