"""One runner per table/figure of the paper's Section 5.

Each function takes a :class:`~repro.core.pipeline.ChurnPipeline` (or a
world) plus light knobs and returns a plain-data result the benchmarks and
:mod:`.reporting` render.  Experiment ↔ module mapping lives in DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ModelConfig, ScaleConfig
from ..datagen.simulator import TelcoWorld
from ..errors import ExperimentError
from ..features.spec import ALL_CATEGORIES
from .labeling import dataset_statistics, recharge_delay_histogram
from .pipeline import ChurnPipeline, WindowResult, average_results
from .retention import CampaignResult, RetentionCampaign
from .window import WindowSpec

#: Feature-family study order of Table 2.
VARIETY_CATEGORIES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9")

#: Day-staleness per sliding stride (Table 5): a pipeline refreshed every k
#: days is on average k/2 days stale.
VELOCITY_STALENESS = {30: 15, 20: 10, 10: 5, 5: 2}


# ----------------------------------------------------------------------
# Figure 1 / Table 1 / Figure 5 — the dataset itself
# ----------------------------------------------------------------------


def fig1_churn_rates(world: TelcoWorld) -> dict:
    """Monthly churn rate, prepaid vs postpaid."""
    prepaid = [m.churn_rate for m in world.months]
    return {
        "months": [m.month for m in world.months],
        "prepaid": prepaid,
        "postpaid": list(world.postpaid_rates),
    }


def table1_dataset_stats(world: TelcoWorld) -> list[dict]:
    """Per-month churner / non-churner counts."""
    return dataset_statistics(world)


def fig5_recharge_distribution(world: TelcoWorld) -> dict:
    """Days-to-recharge histogram plus the share beyond the 15-day grace."""
    days, counts = recharge_delay_histogram(world)
    total = counts.sum()
    beyond = counts[days > 15].sum()
    return {
        "days": days.tolist(),
        "counts": counts.tolist(),
        "fraction_beyond_grace": float(beyond / total) if total else 0.0,
    }


# ----------------------------------------------------------------------
# Figure 7 — Volume
# ----------------------------------------------------------------------


def fig7_volume(
    pipeline: ChurnPipeline,
    max_train_months: int | None = None,
    test_months: list[int] | None = None,
) -> list[dict]:
    """Metrics vs number of accumulated training months (baseline features).

    The paper predicts months 7–9 with 1..6 training months and averages.
    """
    world = pipeline.world
    if test_months is None:
        test_months = [world.n_months - 2, world.n_months - 1, world.n_months]
    if max_train_months is None:
        max_train_months = min(test_months) - 1
    if max_train_months < 1:
        raise ExperimentError("not enough months for a volume sweep")
    rows = []
    for n_train in range(1, max_train_months + 1):
        results = pipeline.run_windows(
            n_train_months=n_train,
            test_months=test_months,
            categories=("F1",),
        )
        row = average_results(results)
        row["train_months"] = n_train
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 2 — Variety
# ----------------------------------------------------------------------


def table2_variety(
    pipeline: ChurnPipeline, test_months: list[int] | None = None
) -> list[dict]:
    """Per-family metrics: F1 alone, then F1 + each other family.

    The paper repeats over months 3..9 with one training month and averages.
    """
    world = pipeline.world
    if test_months is None:
        test_months = list(range(3, world.n_months + 1))
    rows = []
    baseline_pr: float | None = None
    for family in VARIETY_CATEGORIES:
        categories = ("F1",) if family == "F1" else ("F1", family)
        results = pipeline.run_windows(
            n_train_months=1, test_months=test_months, categories=categories
        )
        row = average_results(results)
        row["family"] = family
        if family == "F1":
            baseline_pr = row["pr_auc"]
            row["delta_pr_auc"] = 0.0
        else:
            assert baseline_pr is not None
            row["delta_pr_auc"] = (row["pr_auc"] - baseline_pr) / baseline_pr
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 3 / Table 4 — the deployed configuration
# ----------------------------------------------------------------------


def table3_overall(
    pipeline: ChurnPipeline,
    test_month: int | None = None,
    n_train_months: int = 4,
) -> dict:
    """All 150 features, 4 months of training data, full top-U sweep."""
    world = pipeline.world
    if test_month is None:
        test_month = world.n_months - 1
    spec_months = tuple(
        range(test_month - n_train_months, test_month)
    )
    if spec_months[0] < 1:
        raise ExperimentError(
            f"need {n_train_months} training months before month {test_month}"
        )
    result = pipeline.run_window(
        WindowSpec(spec_months, test_month), categories=ALL_CATEGORIES
    )
    return {
        "auc": result.auc,
        "pr_auc": result.pr_auc,
        "recall_at": dict(result.recall_at),
        "precision_at": dict(result.precision_at),
        "result": result,
    }


def table4_importance(result: WindowResult, top: int = 20) -> list[dict]:
    """RF feature-importance ranking of a fitted window (Eq. 7)."""
    importances = result.predictor.feature_importances_
    order = np.argsort(-importances)
    rows = []
    for rank, j in enumerate(order[:top], start=1):
        rows.append(
            {
                "rank": rank,
                "feature": result.feature_names[j],
                "importance": float(importances[j]),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 5 — Velocity
# ----------------------------------------------------------------------


def table5_velocity(
    pipeline: ChurnPipeline, test_months: list[int] | None = None
) -> list[dict]:
    """Metrics per sliding stride (30/20/10/5 days), averaged over months."""
    world = pipeline.world
    if test_months is None:
        test_months = list(range(3, world.n_months))
    rows = []
    baseline_pr: float | None = None
    for stride in (30, 20, 10, 5):
        staleness = VELOCITY_STALENESS[stride]
        results = [
            pipeline.run_velocity_window(tm, staleness) for tm in test_months
        ]
        row = average_results(results)
        row["stride_days"] = stride
        if baseline_pr is None:
            baseline_pr = row["pr_auc"]
            row["delta_pr_auc"] = 0.0
        else:
            row["delta_pr_auc"] = (row["pr_auc"] - baseline_pr) / baseline_pr
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 6 — Value (retention campaigns)
# ----------------------------------------------------------------------


def table6_value(
    pipeline: ChurnPipeline,
    months: tuple[int, int] | None = None,
    seed: int = 0,
) -> list[CampaignResult]:
    """Two campaign waves: expert offers, then matched offers."""
    campaign = RetentionCampaign(pipeline, seed=seed)
    return campaign.run_study(months)


# ----------------------------------------------------------------------
# Figure 8 — early signals
# ----------------------------------------------------------------------


def fig8_early_signals(
    pipeline: ChurnPipeline,
    max_lead: int = 4,
    test_months: list[int] | None = None,
) -> list[dict]:
    """Metrics vs lead time (1..4 months ahead), baseline features."""
    world = pipeline.world
    rows = []
    for lead in range(1, max_lead + 1):
        months = test_months
        if months is None:
            months = [
                t
                for t in range(1 + lead, world.n_months + 2 - lead)
            ]
        results = pipeline.run_windows(
            n_train_months=1,
            lead=lead,
            test_months=months,
            categories=("F1",),
        )
        row = average_results(results)
        row["lead_months"] = lead
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 7 — imbalance
# ----------------------------------------------------------------------


def table7_imbalance(
    world: TelcoWorld,
    scale: ScaleConfig,
    model: ModelConfig | None = None,
    test_months: list[int] | None = None,
    seed: int = 0,
) -> list[dict]:
    """The four imbalance treatments on baseline features."""
    rows = []
    for strategy in ("none", "up", "down", "weighted"):
        pipeline = ChurnPipeline(
            world,
            scale,
            categories=("F1",),
            model=model,
            imbalance=strategy,
            seed=seed,
        )
        results = pipeline.run_windows(
            n_train_months=1, test_months=test_months
        )
        row = average_results(results)
        row["strategy"] = strategy
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 9 — classifiers
# ----------------------------------------------------------------------


def fig9_classifiers(
    world: TelcoWorld,
    scale: ScaleConfig,
    model: ModelConfig | None = None,
    test_months: list[int] | None = None,
    seed: int = 0,
) -> list[dict]:
    """RF vs GBDT vs LIBLINEAR vs LIBFM on baseline features."""
    rows = []
    for classifier in ("rf", "gbdt", "liblinear", "libfm"):
        pipeline = ChurnPipeline(
            world,
            scale,
            categories=("F1",),
            classifier=classifier,
            model=model,
            seed=seed,
        )
        results = pipeline.run_windows(
            n_train_months=1, test_months=test_months
        )
        row = average_results(results)
        row["classifier"] = classifier
        rows.append(row)
    return rows
