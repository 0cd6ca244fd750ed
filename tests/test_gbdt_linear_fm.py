"""Unit tests for GBDT, logistic regression and factorization machines."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml.fm import FactorizationMachine
from repro.ml.gbdt import GradientBoostedTrees
from repro.ml.linear import LogisticRegression
from repro.ml.metrics import roc_auc


@pytest.fixture(scope="module")
def linear_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1500, 6))
    logit = 2.0 * x[:, 0] - 1.5 * x[:, 1] - 0.5
    y = (rng.random(1500) < 1 / (1 + np.exp(-logit))).astype(int)
    return x[:1000], y[:1000], x[1000:], y[1000:]


@pytest.fixture(scope="module")
def interaction_data():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1500, 6))
    logit = 2.0 * x[:, 2] * x[:, 4] - 0.5
    y = (rng.random(1500) < 1 / (1 + np.exp(-logit))).astype(int)
    return x[:1000], y[:1000], x[1000:], y[1000:]


class TestGBDT:
    def test_learns_signal(self, linear_data):
        x_tr, y_tr, x_te, y_te = linear_data
        model = GradientBoostedTrees(n_trees=30, max_depth=3, seed=1)
        model.fit(x_tr, y_tr)
        assert roc_auc(y_te, model.predict_proba(x_te)) > 0.85

    def test_probabilities_valid(self, linear_data):
        x_tr, y_tr, x_te, _ = linear_data
        model = GradientBoostedTrees(n_trees=5, seed=1).fit(x_tr, y_tr)
        p = model.predict_proba(x_te)
        assert np.all((p > 0) & (p < 1))

    def test_learning_rate_validated(self):
        with pytest.raises(ModelError):
            GradientBoostedTrees(learning_rate=0.0)

    def test_labels_validated(self):
        with pytest.raises(ModelError):
            GradientBoostedTrees().fit(np.zeros((3, 1)), np.array([0, 1, 2]))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            GradientBoostedTrees().predict_proba(np.zeros((1, 1)))

    def test_captures_interactions(self, interaction_data):
        x_tr, y_tr, x_te, y_te = interaction_data
        model = GradientBoostedTrees(n_trees=60, max_depth=4, seed=2)
        model.fit(x_tr, y_tr)
        # Pure product interaction: well above chance and far above what a
        # linear model reaches on the same data (~0.5).
        assert roc_auc(y_te, model.predict_proba(x_te)) > 0.7


class TestLogisticRegression:
    def test_learns_linear_signal(self, linear_data):
        x_tr, y_tr, x_te, y_te = linear_data
        model = LogisticRegression().fit(x_tr, y_tr)
        assert roc_auc(y_te, model.predict_proba(x_te)) > 0.85

    def test_loss_history_nonincreasing(self, linear_data):
        x_tr, y_tr, _, _ = linear_data
        model = LogisticRegression().fit(x_tr, y_tr)
        hist = model.loss_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_coefficients_recover_signs(self, linear_data):
        x_tr, y_tr, _, _ = linear_data
        model = LogisticRegression(l2=1e-4).fit(x_tr, y_tr)
        assert model.coef_[0] > 0
        assert model.coef_[1] < 0
        assert abs(model.coef_[0]) > abs(model.coef_[2])

    def test_l2_shrinks_weights(self, linear_data):
        x_tr, y_tr, _, _ = linear_data
        loose = LogisticRegression(l2=1e-6).fit(x_tr, y_tr)
        tight = LogisticRegression(l2=10.0).fit(x_tr, y_tr)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_sample_weights_shift_decision(self):
        x = np.array([[-1.0], [1.0], [1.0]])
        y = np.array([0, 0, 1])
        # Heavily weighting the positive flips the intercept upward.
        plain = LogisticRegression().fit(x, y)
        weighted = LogisticRegression().fit(
            x, y, sample_weight=np.array([1.0, 1.0, 50.0])
        )
        assert weighted.intercept_ > plain.intercept_

    def test_misses_pure_interaction(self, interaction_data):
        x_tr, y_tr, x_te, y_te = interaction_data
        model = LogisticRegression().fit(x_tr, y_tr)
        assert roc_auc(y_te, model.predict_proba(x_te)) < 0.62

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict_proba(np.zeros((1, 1)))

    def test_feature_width_checked(self, linear_data):
        x_tr, y_tr, _, _ = linear_data
        model = LogisticRegression().fit(x_tr, y_tr)
        with pytest.raises(ModelError):
            model.predict_proba(np.zeros((1, 99)))

    def test_bad_labels(self):
        with pytest.raises(ModelError):
            LogisticRegression().fit(np.zeros((2, 1)), np.array([1, 2]))


class TestFactorizationMachine:
    def test_learns_linear_signal(self, linear_data):
        x_tr, y_tr, x_te, y_te = linear_data
        model = FactorizationMachine(n_epochs=15, seed=1).fit(x_tr, y_tr)
        assert roc_auc(y_te, model.predict_proba(x_te)) > 0.85

    def test_captures_interaction_where_lr_cannot(self, interaction_data):
        x_tr, y_tr, x_te, y_te = interaction_data
        fm = FactorizationMachine(n_epochs=25, seed=1).fit(x_tr, y_tr)
        lr = LogisticRegression().fit(x_tr, y_tr)
        assert roc_auc(y_te, fm.predict_proba(x_te)) > roc_auc(
            y_te, lr.predict_proba(x_te)
        ) + 0.1

    def test_top_pairs_finds_planted_interaction(self, interaction_data):
        x_tr, y_tr, _, _ = interaction_data
        fm = FactorizationMachine(n_epochs=25, seed=1).fit(x_tr, y_tr)
        top = fm.top_pairs(1)[0]
        assert {top[0], top[1]} == {2, 4}

    def test_pair_weight_symmetry(self, linear_data):
        x_tr, y_tr, _, _ = linear_data
        fm = FactorizationMachine(n_epochs=3, seed=1).fit(x_tr, y_tr)
        assert fm.pair_weight(0, 1) == fm.pair_weight(1, 0)

    def test_pair_weight_range_checked(self, linear_data):
        x_tr, y_tr, _, _ = linear_data
        fm = FactorizationMachine(n_epochs=2, seed=1).fit(x_tr, y_tr)
        with pytest.raises(ModelError):
            fm.pair_weight(0, 99)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            FactorizationMachine().predict_proba(np.zeros((1, 1)))

    def test_validation(self):
        with pytest.raises(ModelError):
            FactorizationMachine(n_factors=0)
        with pytest.raises(ModelError):
            FactorizationMachine(n_epochs=0)
        with pytest.raises(ModelError):
            FactorizationMachine(learning_rate=2.0)
