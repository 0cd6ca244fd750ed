"""Extra coverage: wide-table cache semantics and report alert plumbing."""

import numpy as np
import pytest

from repro.core.monitoring import DriftFinding, MonitoringReport
from repro.errors import FeatureError
from repro.features import FeatureMatrix, WideTableBuilder


class TestBuilderCache:
    def test_refit_invalidates_supervised_blocks_only(self, small_world):
        builder = WideTableBuilder(small_world)
        labels4 = {4: small_world.month(4).churn_next.astype(int)}
        labels5 = {5: small_world.month(5).churn_next.astype(int)}
        builder.fit_extractors([4], labels4)
        f1_before = builder.category("F1", 6)
        f8_before = builder.category("F8", 6)
        f9_before = builder.category("F9", 6)
        builder.fit_extractors([5], labels5)
        # Unsupervised block survives the refit; supervised ones rebuild.
        assert builder.category("F1", 6) is f1_before
        f8_after = builder.category("F8", 6)
        f9_after = builder.category("F9", 6)
        assert f8_after is not f8_before
        assert f9_after is not f9_before
        # And the rebuilt blocks reflect the new fit (values may differ).
        assert f8_after.n_features == 10
        assert f9_after.n_features == 20

    def test_different_fit_months_change_second_order_selection(self, small_world):
        builder_a = WideTableBuilder(small_world)
        builder_a.fit_extractors(
            [4], {4: small_world.month(4).churn_next.astype(int)}
        )
        names_a = builder_a.category("F9", 6).names
        # Same fit on the same months is deterministic.
        builder_b = WideTableBuilder(small_world)
        builder_b.fit_extractors(
            [4], {4: small_world.month(4).churn_next.astype(int)}
        )
        assert builder_b.category("F9", 6).names == names_a

    def test_fit_requires_months(self, small_world):
        builder = WideTableBuilder(small_world)
        with pytest.raises(FeatureError):
            builder.fit_extractors([], {})


class TestFeatureMatrixConcat:
    def test_concat_requires_blocks(self):
        with pytest.raises(FeatureError):
            FeatureMatrix.concat([])

    def test_concat_three_blocks(self):
        imsi = np.arange(4)
        blocks = [
            FeatureMatrix(imsi, [f"c{i}"], np.full((4, 1), float(i)))
            for i in range(3)
        ]
        out = FeatureMatrix.concat(blocks)
        assert out.names == ["c0", "c1", "c2"]
        assert out.values[0].tolist() == [0.0, 1.0, 2.0]

    def test_features_rejects_misaligned_block(self, tiny_world):
        """A block missing a customer raises; nothing zero-fills it."""
        builder = WideTableBuilder(tiny_world)
        f1 = builder.category("F1", 1)
        builder._cache[("F2", 1)] = FeatureMatrix(
            f1.imsi[1:], ["short"], np.zeros((f1.n_rows - 1, 1))
        )
        with pytest.raises(FeatureError, match="identical imsi order"):
            builder.features(1, ("F1", "F2"))


class TestMonitoringReportPlumbing:
    def make_report(self, psis, score_psi=None):
        return MonitoringReport(
            reference_label="ref",
            current_label="cur",
            feature_findings=[
                DriftFinding(f"f{i}", p) for i, p in enumerate(psis)
            ],
            score_finding=(
                None if score_psi is None else DriftFinding("model_score", score_psi)
            ),
            reference_churn_rate=0.09,
            current_churn_rate=0.09,
        )

    def test_alerts_collects_feature_and_score(self):
        report = self.make_report([0.01, 0.4], score_psi=0.3)
        assert {f.name for f in report.alerts} == {"f1", "model_score"}
        assert not report.healthy

    def test_watch_level_is_not_an_alert(self):
        report = self.make_report([0.15, 0.2])
        assert report.healthy

    def test_worst_features_sorted(self):
        report = self.make_report([0.05, 0.4, 0.2])
        assert [f.name for f in report.worst_features] == ["f1", "f2", "f0"]
