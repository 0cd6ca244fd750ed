"""Retention campaigns with closed-loop offer matching (Sections 4.3, 5.5).

The monthly cycle reproduced here:

1. The churn model scores every active customer and the top-U list becomes
   the campaign's target population for the coming month.
2. An A/B split holds out group A (no offers); group B receives one of the
   four prepaid recharge offers.
3. In the first campaign month the offers follow operator *domain
   knowledge*; the observed accept/reject outcomes become multi-class
   labels.
4. A multi-class RF matcher is trained on those outcomes — churn features
   plus label-propagated campaign results on the three social graphs (the
   closed loop) — and assigns offers in the next month's campaign.

Recharge rates per group/tier reproduce Table 6's structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datagen.offers import (
    N_OFFERS,
    AcceptanceModel,
    expert_assignment,
    simulate_campaign,
)
from ..errors import ExperimentError
from ..ml.forest import OneVsRestForest
from ..ml.graphalgo import label_propagation
from .pipeline import ChurnPipeline
from .window import WindowSpec

#: Paper tier boundaries: top 50k and 50k..100k of the ranked list.
TIER_BOUNDS = (50_000, 100_000)


@dataclass
class TierOutcome:
    """Recharge outcome of one (group, tier) cell — a Table 6 cell."""

    group: str
    tier: str
    total: int
    recharged: int

    @property
    def rate(self) -> float:
        return self.recharged / self.total if self.total else 0.0


@dataclass
class CampaignResult:
    """All cells for one campaign month plus matcher training data."""

    month: int
    strategy: str  # "expert" or "matched"
    outcomes: list[TierOutcome]
    #: Slots of group-B customers and the offers/labels they produced.
    treated_slots: np.ndarray = field(repr=False)
    treated_offers: np.ndarray = field(repr=False)
    treated_labels: np.ndarray = field(repr=False)

    def rate(self, group: str, tier: str) -> float:
        for cell in self.outcomes:
            if cell.group == group and cell.tier == tier:
                return cell.rate
        raise ExperimentError(f"no cell for group={group!r} tier={tier!r}")


class RetentionCampaign:
    """Runs the two-month campaign study of Section 5.5."""

    def __init__(
        self,
        pipeline: ChurnPipeline,
        seed: int = 0,
    ) -> None:
        self.pipeline = pipeline
        self.acceptance = AcceptanceModel(
            nonchurner_recharge=0.35, churner_natural_recharge=0.01
        )
        #: The offer matcher's forest is sized from the pipeline's model.
        self.matcher_config = pipeline.model
        self.seed = seed
        self._matcher: OneVsRestForest | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run_study(self, months: tuple[int, int] | None = None) -> list[CampaignResult]:
        """Expert campaign in the first month, matched in the second."""
        world = self.pipeline.world
        if months is None:
            months = (world.n_months - 1, world.n_months)
        first, second = months
        if second != first + 1:
            raise ExperimentError(
                f"campaign months must be consecutive, got {months}"
            )
        expert = self.run_campaign(first, strategy="expert")
        self.train_matcher(expert)
        matched = self.run_campaign(second, strategy="matched")
        return [expert, matched]

    def run_campaign(self, campaign_month: int, strategy: str) -> CampaignResult:
        """One campaign wave targeting the churners of ``campaign_month``."""
        if strategy not in ("expert", "matched"):
            raise ExperimentError(f"unknown strategy {strategy!r}")
        if strategy == "matched" and self._matcher is None:
            raise ExperimentError("matched campaigns need train_matcher() first")
        world = self.pipeline.world
        scale = self.pipeline.scale
        feature_month = campaign_month - 1
        if feature_month < 2:
            raise ExperimentError(
                f"campaign month {campaign_month} leaves no training window"
            )
        rng = np.random.default_rng(self.seed + campaign_month)

        # Score the active base with a one-month window ending just before
        # the campaign, exactly as Figure 6 prescribes.
        spec = WindowSpec((feature_month - 1,), feature_month)
        result = self.pipeline.run_window(spec)
        order = np.argsort(-result.scores, kind="mergesort")
        u_hi = min(scale.scaled_u(TIER_BOUNDS[0]), len(order))
        u_lo = min(scale.scaled_u(TIER_BOUNDS[1]), len(order))
        target_rows = order[:u_lo]
        tier_names = np.where(
            np.arange(len(target_rows)) < u_hi, "top50k", "50k-100k"
        )
        slots = result.test_slots[target_rows]
        is_churner = result.labels[target_rows].astype(bool)

        month_truth = world.month(feature_month)
        if month_truth.offer_class is None:
            raise ExperimentError("world lacks offer-affinity snapshots")
        affinity = month_truth.offer_class[slots]

        # A/B split.
        in_b = rng.random(len(slots)) < 0.5
        offered = np.zeros(len(slots), dtype=np.int64)
        if strategy == "expert":
            features = self.pipeline.builder.features(
                feature_month, ("F1",)
            )
            voice = features.column("voice_dur")[slots]
            data = features.column("gprs_all_flux")[slots]
            offered[in_b] = expert_assignment(voice[in_b], data[in_b], rng)
        else:
            x = self._matcher_features(feature_month, slots)
            predicted = self._matcher.predict(x)  # type: ignore[union-attr]
            # Class 0 = "refuses all"; still send the most likely paid offer.
            proba = self._matcher.predict_proba(x)  # type: ignore[union-attr]
            best_paid = 1 + proba[:, 1:].argmax(axis=1)
            chosen = np.where(predicted == 0, best_paid, predicted)
            offered[in_b] = chosen[in_b]

        recharged = simulate_campaign(
            affinity, is_churner, offered, rng, self.acceptance
        )

        outcomes = []
        for group, mask in (("A", ~in_b), ("B", in_b)):
            for tier in ("top50k", "50k-100k"):
                cell = mask & (tier_names == tier)
                outcomes.append(
                    TierOutcome(
                        group=group,
                        tier=tier,
                        total=int(cell.sum()),
                        recharged=int(recharged[cell].sum()),
                    )
                )
        labels = np.where(recharged & in_b, offered, 0)
        return CampaignResult(
            month=campaign_month,
            strategy=strategy,
            outcomes=outcomes,
            treated_slots=slots[in_b],
            treated_offers=offered[in_b],
            treated_labels=labels[in_b],
        )

    def train_matcher(self, campaign: CampaignResult) -> None:
        """Fit the multi-class offer matcher from campaign outcomes."""
        feature_month = campaign.month - 1
        x = self._matcher_features(
            feature_month, campaign.treated_slots, campaign
        )
        y = campaign.treated_labels
        matcher = OneVsRestForest(
            n_classes=N_OFFERS + 1,
            n_trees=max(10, self.matcher_config.n_trees // 2),
            min_samples_leaf=max(5, self.matcher_config.min_samples_leaf // 2),
            max_depth=self.matcher_config.max_depth,
            seed=self.seed,
        )
        matcher.fit(x, y)
        self._matcher = matcher

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _matcher_features(
        self,
        feature_month: int,
        slots: np.ndarray,
        campaign: CampaignResult | None = None,
    ) -> np.ndarray:
        """Churn features + label-propagated campaign results (closed loop).

        The 3 × C propagation features spread the previous campaign's offer
        acceptances over the call/message/co-occurrence graphs: customers
        with close relationships tend to accept similar offers.
        """
        world = self.pipeline.world
        base = self.pipeline.builder.features(feature_month, ("F1",))
        x = base.values[slots]
        reference = campaign if campaign is not None else self._last_campaign
        if reference is not None:
            seeds = {
                int(slot): int(label)
                for slot, label in zip(
                    reference.treated_slots.tolist(),
                    reference.treated_labels.tolist(),
                )
            }
            blocks = []
            for graph in world.graphs.values():
                beliefs = label_propagation(
                    graph.edges,
                    graph.weights,
                    graph.n_nodes,
                    seeds,
                    n_classes=N_OFFERS + 1,
                    max_iter=15,
                )
                blocks.append(beliefs[slots])
            x = np.hstack([x] + blocks)
        if campaign is not None:
            self._last_campaign = campaign
        return x

    _last_campaign: CampaignResult | None = None
