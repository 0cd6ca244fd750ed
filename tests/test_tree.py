"""Unit tests for the CART decision tree."""

import numpy as np
import pytest

from reference_tree import fit_tree
from repro.errors import ModelError, NotFittedError, TrainingError
from repro.ml.tree import LEAF, DecisionTree


@pytest.fixture()
def xor_data():
    """A dataset a depth-2 tree separates but a stump cannot."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(400, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(float)
    return x, y


class TestFitBasics:
    def test_pure_node_stays_leaf(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, 1.0])
        tree = fit_tree(DecisionTree(), x, y)
        assert tree.node_count == 1
        assert tree.predict(x).tolist() == [1.0, 1.0, 1.0]

    def test_single_split(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(DecisionTree(), x, y)
        assert tree.n_leaves == 2
        assert tree.predict(np.array([[0.5], [2.5]])).tolist() == [0.0, 1.0]

    def test_threshold_is_midpoint(self):
        x = np.array([[0.0], [10.0]])
        y = np.array([0.0, 1.0])
        tree = fit_tree(DecisionTree(), x, y)
        assert tree.predict(np.array([[4.9]]))[0] == 0.0
        assert tree.predict(np.array([[5.1]]))[0] == 1.0

    def test_xor_needs_depth_two(self, xor_data):
        x, y = xor_data
        deep = fit_tree(DecisionTree(max_depth=3), x, y)
        acc = ((deep.predict(x) > 0.5) == y).mean()
        assert acc > 0.95

    def test_max_depth_limits_growth(self, xor_data):
        x, y = xor_data
        stump = fit_tree(DecisionTree(max_depth=1), x, y)
        assert stump.node_count <= 3

    def test_min_samples_leaf_respected(self, xor_data):
        x, y = xor_data
        tree = fit_tree(DecisionTree(min_samples_leaf=50), x, y)
        leaves = tree.apply(x)
        counts = np.bincount(leaves, minlength=tree.node_count)
        leaf_ids = np.flatnonzero(tree._feature == LEAF)
        assert all(counts[i] >= 50 for i in leaf_ids)

    def test_mse_criterion_regression(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(500, 1))
        y = np.where(x[:, 0] > 0.5, 3.0, -1.0) + rng.normal(0, 0.05, 500)
        tree = fit_tree(DecisionTree(criterion="mse", max_depth=2), x, y)
        pred = tree.predict(np.array([[0.25], [0.75]]))
        assert pred[0] == pytest.approx(-1.0, abs=0.2)
        assert pred[1] == pytest.approx(3.0, abs=0.2)

    def test_sample_weights_shift_split(self):
        # Downweighting one class's outliers changes the learned leaf value.
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 1.0, 1.0])
        w_uniform = fit_tree(DecisionTree(), x, y).predict(np.array([[0.0]]))[0]
        heavy = fit_tree(
            DecisionTree(), x, y, sample_weight=np.array([10.0, 1.0, 1.0, 1.0])
        ).predict(np.array([[0.0]]))[0]
        assert heavy < w_uniform

    def test_constant_feature_no_split(self):
        x = np.zeros((10, 1))
        y = np.array([0.0, 1.0] * 5)
        tree = fit_tree(DecisionTree(), x, y)
        assert tree.node_count == 1
        assert tree.predict(x)[0] == pytest.approx(0.5)


class TestValidation:
    def test_bad_criterion(self):
        with pytest.raises(ModelError):
            DecisionTree(criterion="entropy")

    def test_bad_depth(self):
        with pytest.raises(ModelError):
            DecisionTree(max_depth=0)

    def test_bad_min_leaf(self):
        with pytest.raises(ModelError):
            DecisionTree(min_samples_leaf=0)

    def test_gini_rejects_nonbinary(self):
        with pytest.raises(ModelError):
            fit_tree(DecisionTree(), np.zeros((3, 1)), np.array([0.0, 1.0, 2.0]))

    def test_empty_input(self):
        with pytest.raises(TrainingError):
            fit_tree(DecisionTree(), np.zeros((0, 1)), np.zeros(0))

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            fit_tree(DecisionTree(), np.zeros((2, 1)), np.zeros(3))

    def test_negative_weights_rejected(self):
        with pytest.raises(ModelError):
            fit_tree(
                DecisionTree(), np.zeros((2, 1)), np.array([0.0, 1.0]),
                sample_weight=np.array([1.0, -1.0]),
            )

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            DecisionTree().predict(np.zeros((1, 1)))

    def test_predict_wrong_width(self, xor_data):
        x, y = xor_data
        tree = fit_tree(DecisionTree(max_depth=2), x, y)
        with pytest.raises(ModelError):
            tree.predict(np.zeros((1, 5)))

    def test_bad_max_features(self):
        tree = DecisionTree(max_features=0.5)  # floats unsupported
        with pytest.raises(ModelError):
            fit_tree(tree, np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))


class TestImportanceAndIntrospection:
    def test_importance_concentrates_on_signal_feature(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(600, 5))
        y = (x[:, 3] > 0).astype(float)
        tree = fit_tree(DecisionTree(max_depth=4), x, y)
        imp = tree.feature_importances_
        assert imp.argmax() == 3
        assert imp[3] > 0.9 * imp.sum()

    def test_apply_returns_leaves(self, xor_data):
        x, y = xor_data
        tree = fit_tree(DecisionTree(max_depth=3), x, y)
        leaves = tree.apply(x)
        assert np.all(tree._feature[leaves] == LEAF)

    def test_set_leaf_values_changes_predictions(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        tree = fit_tree(DecisionTree(), x, y)
        values = tree.leaf_values()
        tree.set_leaf_values(values + 10.0)
        assert np.all(tree.predict(x) >= 10.0)

    def test_set_leaf_values_shape_checked(self):
        x = np.array([[0.0], [1.0]])
        tree = fit_tree(DecisionTree(), x, np.array([0.0, 1.0]))
        with pytest.raises(ModelError):
            tree.set_leaf_values(np.zeros(99))

    def test_sqrt_feature_subsampling_still_learns(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(800, 16))
        y = (x[:, 0] > 0).astype(float)
        tree = fit_tree(DecisionTree(max_features="sqrt", max_depth=6, seed=5), x, y)
        acc = ((tree.predict(x) > 0.5) == y).mean()
        assert acc > 0.9
