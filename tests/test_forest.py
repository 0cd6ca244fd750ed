"""Unit tests for the Random Forest and the one-vs-rest multiclass wrapper."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml.forest import OneVsRestForest, RandomForestClassifier
from repro.ml.metrics import roc_auc


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1200, 8))
    logit = 1.5 * x[:, 0] - 1.0 * x[:, 1] + 0.5 * x[:, 2] * x[:, 3]
    y = (rng.random(1200) < 1 / (1 + np.exp(-logit))).astype(int)
    return x[:900], y[:900], x[900:], y[900:]


class TestFit:
    def test_learns_signal(self, data):
        x_tr, y_tr, x_te, y_te = data
        rf = RandomForestClassifier(n_trees=15, min_samples_leaf=10, seed=1)
        rf.fit(x_tr, y_tr)
        assert roc_auc(y_te, rf.predict_proba(x_te)) > 0.75

    def test_probabilities_in_unit_interval(self, data):
        x_tr, y_tr, x_te, _ = data
        rf = RandomForestClassifier(n_trees=5, seed=1).fit(x_tr, y_tr)
        p = rf.predict_proba(x_te)
        assert np.all(p >= 0) and np.all(p <= 1)

    def test_deterministic_given_seed(self, data):
        x_tr, y_tr, x_te, _ = data
        a = RandomForestClassifier(n_trees=5, seed=7).fit(x_tr, y_tr)
        b = RandomForestClassifier(n_trees=5, seed=7).fit(x_tr, y_tr)
        assert np.array_equal(a.predict_proba(x_te), b.predict_proba(x_te))

    def test_seed_changes_model(self, data):
        x_tr, y_tr, x_te, _ = data
        a = RandomForestClassifier(n_trees=5, seed=1).fit(x_tr, y_tr)
        b = RandomForestClassifier(n_trees=5, seed=2).fit(x_tr, y_tr)
        assert not np.array_equal(a.predict_proba(x_te), b.predict_proba(x_te))

    def test_more_trees_do_not_hurt(self, data):
        x_tr, y_tr, x_te, y_te = data
        few = RandomForestClassifier(n_trees=2, seed=3).fit(x_tr, y_tr)
        many = RandomForestClassifier(n_trees=25, seed=3).fit(x_tr, y_tr)
        assert roc_auc(y_te, many.predict_proba(x_te)) >= roc_auc(
            y_te, few.predict_proba(x_te)
        ) - 0.02

    def test_sample_weights_accepted(self, data):
        x_tr, y_tr, x_te, y_te = data
        w = np.where(y_tr == 1, 5.0, 1.0)
        rf = RandomForestClassifier(n_trees=8, seed=1).fit(x_tr, y_tr, sample_weight=w)
        assert roc_auc(y_te, rf.predict_proba(x_te)) > 0.7

    def test_paper_settings(self):
        rf = RandomForestClassifier.paper_settings()
        assert rf.n_trees == 500
        assert rf.min_samples_leaf == 100


class TestInterface:
    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict_proba(np.zeros((1, 2)))

    def test_bad_n_trees(self):
        with pytest.raises(ModelError):
            RandomForestClassifier(n_trees=0)

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            RandomForestClassifier().fit(np.zeros((2, 1)), np.zeros(3))

    def test_importances_sum_to_one(self, data):
        x_tr, y_tr, _, _ = data
        rf = RandomForestClassifier(n_trees=10, seed=1).fit(x_tr, y_tr)
        imp = rf.feature_importances_
        assert imp.sum() == pytest.approx(1.0)
        assert imp.argmax() in (0, 1)  # the linear signal features


class TestOneVsRest:
    @pytest.fixture(scope="class")
    def multiclass(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(900, 4))
        y = np.zeros(900, dtype=int)
        y[x[:, 0] > 0.5] = 1
        y[x[:, 1] > 0.5] = 2
        y[(x[:, 0] < -0.5) & (x[:, 2] > 0)] = 3
        return x, y

    def test_learns_classes(self, multiclass):
        x, y = multiclass
        model = OneVsRestForest(n_classes=4, n_trees=10, seed=2).fit(x, y)
        acc = (model.predict(x) == y).mean()
        assert acc > 0.75

    def test_proba_rows_normalized(self, multiclass):
        x, y = multiclass
        model = OneVsRestForest(n_classes=4, n_trees=5, seed=2).fit(x, y)
        p = model.predict_proba(x)
        assert p.shape == (len(x), 4)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_absent_class_handled(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 2))
        y = (x[:, 0] > 0).astype(int)  # classes 2..4 never appear
        model = OneVsRestForest(n_classes=5, n_trees=5, seed=2).fit(x, y)
        assert set(np.unique(model.predict(x))) <= {0, 1}

    def test_label_out_of_range(self):
        with pytest.raises(ModelError):
            OneVsRestForest(n_classes=2).fit(
                np.zeros((3, 1)), np.array([0, 1, 5])
            )

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            OneVsRestForest(n_classes=3).predict(np.zeros((1, 2)))

    def test_too_few_classes(self):
        with pytest.raises(ModelError):
            OneVsRestForest(n_classes=1)
