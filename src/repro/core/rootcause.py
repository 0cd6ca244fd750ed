"""Churn root-cause inference — the paper's stated extension.

Section 6: "Extension work includes inferring root causes of churners for
actionable and suitable retention strategies."  This module implements that
extension on top of the fitted churn model: for each predicted churner, it
attributes the churn score to interpretable *cause groups* by group
neutralization — replace one group's feature values with the population
median, re-score, and read the score drop as that group's contribution.

Cause groups map directly onto retention levers:

======================  ===========================================
cause group             suggested lever
======================  ===========================================
financial               cashback offers (offer classes 1/2)
data_service_quality    network fix + flux top-up (offer class 3)
voice_service_quality   network fix + free minutes (offer class 4)
engagement              win-back/usage stimulation campaign
social                  community-level campaign (whole cluster)
lifecycle               contract/loyalty upgrade
======================  ===========================================

The simulator knows every churner's true reason (financial / quality /
social), which the tests use to validate that the attribution recovers it
far better than chance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExperimentError
from .pipeline import WindowResult

#: Cause-group definitions: name → predicate over feature names.
#: Order matters only for reporting.
CAUSE_GROUPS: dict[str, tuple[str, ...]] = {
    "financial": (
        "balance", "balance_rate", "recharge_cnt", "recharge_amt",
        "total_charge", "gprs_charge", "p2p_sms_mo_charge",
    ),
    "data_service_quality": (
        "page_response", "page_browsing", "page_download", "stream_",
        "email_", "l4_", "tcp_", "pagesize",
    ),
    "voice_service_quality": (
        "perceived_call", "e2e_conn", "voice_quality", "oneway_audio",
        "noise_cnt", "echo_cnt",
    ),
    "engagement": (
        "call_dur", "call_cnt", "called_dur", "voice_dur", "voice_cnt",
        "caller_", "sms_", "mms_", "gprs_flux", "gprs_all_flux",
        "late_call_share", "late_data_share", "total_call_dur_d",
        "total_data_mb_d", "_minutes",
    ),
    "social": (
        "pagerank_", "labelprop_",
    ),
    # Second-order products (x2_a__b) match through their component
    # markers, so e.g. x2_balance__balance_rate lands in "financial" and
    # x2_innet_dura__total_charge in both "lifecycle" and "financial".
    "lifecycle": (
        "innet_dura", "age", "product_", "credit_value",
    ),
}

#: Retention lever suggested per cause (Section 4.3's offer catalogue).
SUGGESTED_LEVER = {
    "financial": "cashback offer (100-on-100 or 50-on-100)",
    "data_service_quality": "network optimization + 500MB flux offer",
    "voice_service_quality": "network optimization + 200-minute voice offer",
    "engagement": "win-back usage stimulation campaign",
    "social": "community-level retention campaign",
    "lifecycle": "loyalty/contract upgrade",
}


@dataclass
class Attribution:
    """Per-customer churn-cause attribution."""

    slot: int
    score: float
    #: cause → score drop when the cause group is neutralized.
    contributions: dict[str, float]

    @property
    def dominant_cause(self) -> str:
        return max(self.contributions, key=self.contributions.get)  # type: ignore[arg-type]

    @property
    def suggested_lever(self) -> str:
        return SUGGESTED_LEVER[self.dominant_cause]


class RootCauseAnalyzer:
    """Attributes churn scores to cause groups by group neutralization.

    Parameters
    ----------
    result:
        A fitted window result (scores + predictor + feature names).
    features:
        The feature matrix the test customers were scored on, aligned with
        ``result.test_slots`` row order.
    """

    def __init__(self, result: WindowResult, features: np.ndarray) -> None:
        features = np.asarray(features, dtype=np.float64)
        if len(features) != len(result.test_slots):
            raise ExperimentError(
                f"{len(features)} feature rows for "
                f"{len(result.test_slots)} scored customers"
            )
        if features.shape[1] != len(result.feature_names):
            raise ExperimentError(
                f"{features.shape[1]} feature columns for "
                f"{len(result.feature_names)} feature names"
            )
        self._result = result
        self._features = features
        self._groups = self._resolve_groups(result.feature_names)
        self._medians = np.median(features, axis=0)

    @staticmethod
    def _resolve_groups(names: list[str]) -> dict[str, np.ndarray]:
        """Column indices per cause group (a column joins every group whose
        marker matches; unmatched columns are ignored)."""
        out: dict[str, np.ndarray] = {}
        for cause, markers in CAUSE_GROUPS.items():
            cols = [
                j
                for j, name in enumerate(names)
                if any(marker in name for marker in markers)
            ]
            out[cause] = np.asarray(cols, dtype=np.intp)
        return out

    def group_columns(self, cause: str) -> list[int]:
        """Feature columns attributed to one cause group."""
        if cause not in self._groups:
            raise ExperimentError(
                f"unknown cause {cause!r}; have {sorted(self._groups)}"
            )
        return self._groups[cause].tolist()

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------

    def attribute(self, rows: np.ndarray | None = None) -> list[Attribution]:
        """Attributions for the given scored rows (default: all of them).

        For each cause group, the group's columns are replaced with the
        population median and the cohort re-scored in one batch; the drop
        in a customer's score is the group's contribution (floored at 0 —
        a group whose removal *raises* the score is not a churn cause).
        """
        if rows is None:
            rows = np.arange(len(self._features))
        rows = np.asarray(rows, dtype=np.intp)
        base_scores = self._result.scores[rows]
        x = self._features[rows]
        contributions: dict[str, np.ndarray] = {}
        predictor = self._result.predictor
        for cause, cols in self._groups.items():
            if len(cols) == 0:
                contributions[cause] = np.zeros(len(rows))
                continue
            neutralized = x.copy()
            neutralized[:, cols] = self._medians[cols]
            contributions[cause] = np.maximum(
                base_scores - predictor.predict_proba(neutralized), 0.0
            )
        out = []
        for i, row in enumerate(rows.tolist()):
            out.append(
                Attribution(
                    slot=int(self._result.test_slots[row]),
                    score=float(base_scores[i]),
                    contributions={
                        cause: float(values[i])
                        for cause, values in contributions.items()
                    },
                )
            )
        return out

    def attribute_top(self, u: int) -> list[Attribution]:
        """Attributions for the top-``u`` scored customers."""
        if u < 1:
            raise ExperimentError(f"u must be >= 1, got {u}")
        order = np.argsort(-self._result.scores, kind="mergesort")[:u]
        return self.attribute(order)

    def cohort_summary(self, attributions: list[Attribution]) -> dict[str, float]:
        """Share of customers per dominant cause."""
        if not attributions:
            raise ExperimentError("no attributions to summarize")
        counts: dict[str, int] = {cause: 0 for cause in CAUSE_GROUPS}
        for attribution in attributions:
            counts[attribution.dominant_cause] += 1
        total = len(attributions)
        return {cause: counts[cause] / total for cause in counts}


def report_root_causes(analyzer: RootCauseAnalyzer, u: int) -> str:
    """Readable root-cause report for the top-``u`` potential churners."""
    attributions = analyzer.attribute_top(u)
    summary = analyzer.cohort_summary(attributions)
    lines = [f"Root causes for the top {u} potential churners:"]
    for cause, share in sorted(summary.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {cause:<22} {share:6.1%}  -> {SUGGESTED_LEVER[cause]}"
        )
    lines.append("")
    lines.append("Examples:")
    for attribution in attributions[:5]:
        top_cause = attribution.dominant_cause
        lines.append(
            f"  slot {attribution.slot:>6}  score {attribution.score:.3f}  "
            f"cause={top_cause} "
            f"(+{attribution.contributions[top_cause]:.3f})"
        )
    return "\n".join(lines)
