"""Tests for the predictor facade and the end-to-end pipeline."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.core.pipeline import ChurnPipeline, WindowResult, average_results
from repro.core.predictor import CLASSIFIERS, ChurnPredictor
from repro.core.window import WindowSpec
from repro.errors import ExperimentError, ModelError, NotFittedError


@pytest.fixture(scope="module")
def pipeline(small_world, small_scale, small_model):
    return ChurnPipeline(
        small_world, small_scale, categories=("F1",), model=small_model
    )


@pytest.fixture(scope="module")
def result(pipeline) -> WindowResult:
    return pipeline.run_window(WindowSpec((5,), 6))


class TestChurnPredictor:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(800, 6))
        y = (rng.random(800) < 1 / (1 + np.exp(-2 * x[:, 0]))).astype(int)
        return x, y

    @pytest.mark.parametrize("classifier", CLASSIFIERS)
    def test_every_classifier_learns(self, data, classifier):
        from repro.ml.metrics import roc_auc

        x, y = data
        model = ChurnPredictor(
            classifier, ModelConfig(n_trees=10, min_samples_leaf=10)
        )
        model.fit(x[:600], y[:600])
        assert roc_auc(y[600:], model.predict_proba(x[600:])) > 0.7

    def test_linear_models_binarize(self, data):
        x, y = data
        model = ChurnPredictor("liblinear")
        assert model.is_linear
        model.fit(x, y)
        # The underlying LR was fitted on one-hot features, not raw ones.
        assert len(model._model.coef_) > x.shape[1]

    def test_importances_only_for_rf(self, data):
        x, y = data
        gb = ChurnPredictor("gbdt", ModelConfig(n_trees=5)).fit(x, y)
        with pytest.raises(ModelError):
            gb.feature_importances_

    def test_unknown_classifier(self):
        with pytest.raises(ModelError):
            ChurnPredictor("xgboost")

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            ChurnPredictor("rf").predict_proba(np.zeros((1, 2)))

    def test_feature_width_checked(self, data):
        x, y = data
        model = ChurnPredictor("rf", ModelConfig(n_trees=3)).fit(x, y)
        with pytest.raises(ModelError):
            model.predict_proba(np.zeros((2, 99)))


class TestPipeline:
    def test_window_result_fields(self, result, small_world):
        assert 0.5 < result.auc <= 1.0
        assert 0.0 < result.pr_auc <= 1.0
        assert len(result.scores) == len(result.labels) == len(result.test_slots)
        assert set(result.recall_at) == {50_000, 100_000, 200_000}

    def test_scored_population_is_eligible_only(self, result, small_world):
        eligible = small_world.month(6).eligible
        assert np.all(eligible[result.test_slots])

    def test_labels_match_truth(self, result, small_world):
        truth = small_world.month(6).churn_next[result.test_slots]
        assert np.array_equal(result.labels.astype(bool), truth)

    def test_learns_better_than_chance(self, result):
        assert result.auc > 0.75
        base_rate = result.labels.mean()
        assert result.pr_auc > 2 * base_rate

    def test_more_training_months_help(self, pipeline):
        one = pipeline.run_window(WindowSpec((5,), 6))
        four = pipeline.run_window(WindowSpec((2, 3, 4, 5), 6))
        assert four.auc > one.auc - 0.03  # volume should not hurt

    def test_run_windows_repeats(self, pipeline):
        results = pipeline.run_windows(n_train_months=1, test_months=[5, 6])
        assert [r.spec.test_month for r in results] == [5, 6]

    def test_average_results(self, pipeline):
        results = pipeline.run_windows(n_train_months=1, test_months=[5, 6])
        avg = average_results(results)
        assert avg["auc"] == pytest.approx(np.mean([r.auc for r in results]))
        assert average_results([]) if False else True
        with pytest.raises(ExperimentError):
            average_results([])

    def test_unknown_category_rejected(self, small_world, small_scale):
        with pytest.raises(ExperimentError):
            ChurnPipeline(small_world, small_scale, categories=("F0",))

    def test_labels_cached(self, pipeline):
        a = pipeline.labels(5)
        b = pipeline.labels(5)
        assert a is b


class TestVelocity:
    def test_velocity_window_runs(self, pipeline):
        # Velocity features deliberately exclude the in-flight month's
        # monthly aggregates (no leak), so absolute levels sit well below
        # the full baseline; above-chance is what matters here.
        result = pipeline.run_velocity_window(6, staleness_days=10)
        assert result.auc > 0.55

    def test_fresher_is_not_worse(self, pipeline):
        stale = pipeline.run_velocity_window(6, staleness_days=15)
        fresh = pipeline.run_velocity_window(6, staleness_days=2)
        assert fresh.pr_auc >= stale.pr_auc - 0.05

    def test_staleness_validated(self, pipeline):
        with pytest.raises(ExperimentError):
            pipeline.run_velocity_window(6, staleness_days=30)
        with pytest.raises(ExperimentError):
            pipeline.run_velocity_window(6, staleness_days=-1)

    def test_month_bounds_validated(self, pipeline):
        with pytest.raises(ExperimentError):
            pipeline.run_velocity_window(2, staleness_days=5)


class TestLeads:
    def test_longer_lead_is_harder(self, pipeline):
        lead1 = pipeline.run_window(WindowSpec((5,), 6, lead=1))
        lead2 = pipeline.run_window(WindowSpec((4,), 6, lead=2))
        assert lead2.auc < lead1.auc
        assert lead2.pr_auc < lead1.pr_auc
