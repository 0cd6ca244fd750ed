"""Customer-centric network optimization — the Figure-2 network application.

Section 5.3 of the paper, after finding that CS/PS service quality drives
churn: *"We can use a customer-centric network optimization solution to
improve KPI/KQI experiences of potential churners."*  This module closes
that loop:

1. score the base with the full churn model and take the top of the list;
2. attribute each potential churner's risk to causes
   (:mod:`~repro.core.rootcause`) and keep those leaving over *service
   quality* — cashback will not retain a customer whose pages will not
   load;
3. apply a :class:`~repro.datagen.simulator.QualityIntervention` (fix their
   cells) and re-simulate the same world seed — the simulator consumes an
   identical RNG stream either way, so the two runs are a matched
   counterfactual pair;
4. report churn avoided among the treated vs the untreated comparison
   group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ModelConfig, ScaleConfig
from ..datagen.simulator import (
    QualityIntervention,
    TelcoSimulator,
    TelcoWorld,
)
from ..errors import ExperimentError
from ..features.spec import ALL_CATEGORIES
from .pipeline import ChurnPipeline
from .rootcause import RootCauseAnalyzer
from .window import WindowSpec

#: Paper-scale cutoff of the attributed top-U list (through ``scale.scaled_u``).
TARGET_U = 100_000
#: Latent quality gain of a cell fix, in standard deviations.
IMPROVEMENT = 1.5

#: Cause groups that a network fix can address.
QUALITY_CAUSES = ("data_service_quality", "voice_service_quality")


@dataclass
class NetworkOptimizationReport:
    """Outcome of one counterfactual network-optimization study."""

    start_month: int
    horizon_months: int
    treated_slots: np.ndarray
    comparison_slots: np.ndarray
    treated_baseline_churn: int
    treated_intervened_churn: int
    comparison_baseline_churn: int
    comparison_intervened_churn: int

    @property
    def churn_avoided(self) -> int:
        return self.treated_baseline_churn - self.treated_intervened_churn

    @property
    def treated_reduction(self) -> float:
        base = max(self.treated_baseline_churn, 1)
        return self.churn_avoided / base

    @property
    def comparison_drift(self) -> int:
        """Churn change among untreated targets (should be ≈ 0)."""
        return (
            self.comparison_baseline_churn - self.comparison_intervened_churn
        )

    def render(self) -> str:
        first = self.start_month + 1
        lines = [
            "Network optimization study "
            f"(cells fixed in month {self.start_month}; churn measured "
            f"months {first}..{first + self.horizon_months - 1})",
            f"  treated (quality-cause churn risks): {len(self.treated_slots)}",
            f"    churn without intervention: {self.treated_baseline_churn}",
            f"    churn with cell fixes:      {self.treated_intervened_churn}"
            f"  ({self.treated_reduction:.0%} avoided)",
            f"  comparison (other-cause churn risks): {len(self.comparison_slots)}",
            f"    churn without intervention: {self.comparison_baseline_churn}",
            f"    churn with cell fixes:      {self.comparison_intervened_churn}"
            f"  (drift {self.comparison_drift:+d})",
        ]
        return "\n".join(lines)


def churn_events(world: TelcoWorld, slots: np.ndarray, months: range) -> int:
    """Churn events among ``slots`` over ``months`` (churning_now counts)."""
    total = 0
    for month in months:
        total += int(world.month(month).churning_now[slots].sum())
    return total


def run_network_optimization_study(
    scale: ScaleConfig,
    model: ModelConfig | None = None,
    start_month: int | None = None,
    seed: int = 0,
) -> NetworkOptimizationReport:
    """The full counterfactual study on a fresh world at ``scale``."""
    if model is None:
        model = ModelConfig()
    simulator = TelcoSimulator(scale)
    baseline = simulator.run()
    if start_month is None:
        start_month = baseline.n_months // 2 + 1
    if not 3 <= start_month <= baseline.n_months - 1:
        raise ExperimentError(
            f"start_month must be in 3..{baseline.n_months - 1}, "
            f"got {start_month}"
        )

    # 1-2. Score and attribute on data available *before* the intervention.
    pipeline = ChurnPipeline(baseline, scale, model=model, seed=seed)
    feature_month = start_month - 1
    spec = WindowSpec((feature_month - 1,), feature_month)
    result = pipeline.run_window(spec, categories=ALL_CATEGORIES)
    features = pipeline.builder.features(feature_month, ALL_CATEGORIES).values[
        result.test_slots
    ]
    analyzer = RootCauseAnalyzer(result, features)
    u = min(scale.scaled_u(TARGET_U), len(result.scores))
    attributions = analyzer.attribute_top(u)
    treated = np.asarray(
        [a.slot for a in attributions if a.dominant_cause in QUALITY_CAUSES],
        dtype=np.int64,
    )
    comparison = np.asarray(
        [a.slot for a in attributions if a.dominant_cause not in QUALITY_CAUSES],
        dtype=np.int64,
    )
    if len(treated) == 0:
        raise ExperimentError(
            "no quality-cause churn risks found in the target list"
        )

    # 3. The matched counterfactual run.  Reusing the baseline's absolute
    # risk thresholds keeps the churn bar fixed: without this, the monthly
    # quantile would re-adjust and avoided churn would displace onto
    # untreated customers.
    intervened = simulator.run(
        QualityIntervention(
            start_month=start_month,
            slots=treated,
            ps_improvement=IMPROVEMENT,
            cs_improvement=IMPROVEMENT,
        ),
        fixed_thresholds=baseline.risk_thresholds,
    )

    # 4. Compare realized churn over the remaining horizon.  Churn *in*
    # the start month was decided the month before, so the first month the
    # intervention can move is start_month + 1.
    months = range(start_month + 1, baseline.n_months + 1)
    return NetworkOptimizationReport(
        start_month=start_month,
        horizon_months=len(months),
        treated_slots=treated,
        comparison_slots=comparison,
        treated_baseline_churn=churn_events(baseline, treated, months),
        treated_intervened_churn=churn_events(intervened, treated, months),
        comparison_baseline_churn=churn_events(baseline, comparison, months),
        comparison_intervened_churn=churn_events(intervened, comparison, months),
    )
