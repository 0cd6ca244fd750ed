"""Property-based tests (hypothesis) for the tree/forest/calibration layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from reference_tree import fit_tree
from repro.ml.calibration import IsotonicCalibrator
from repro.ml.forest import RandomForestClassifier
from repro.ml.preprocess import Standardizer
from repro.ml.tree import DecisionTree

features = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@st.composite
def classification_data(draw, min_rows=20, max_rows=120):
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, 4))
    x = draw(
        hnp.arrays(np.float64, (n, d), elements=features)
    )
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    y[0], y[1] = 0, 1  # both classes
    return x, y.astype(np.float64)


class TestTreeProperties:
    @given(classification_data())
    @settings(max_examples=30, deadline=None)
    def test_leaf_values_are_probabilities(self, data):
        x, y = data
        tree = fit_tree(DecisionTree(max_depth=6, min_samples_leaf=2), x, y)
        predictions = tree.predict(x)
        assert np.all((predictions >= 0) & (predictions <= 1))

    @given(classification_data())
    @settings(max_examples=30, deadline=None)
    def test_apply_and_predict_agree(self, data):
        x, y = data
        tree = fit_tree(DecisionTree(max_depth=5, min_samples_leaf=2), x, y)
        values = tree.leaf_values()
        assert np.array_equal(tree.predict(x), values[tree.apply(x)])

    @given(classification_data())
    @settings(max_examples=30, deadline=None)
    def test_importances_nonnegative(self, data):
        x, y = data
        tree = fit_tree(DecisionTree(max_depth=5, min_samples_leaf=2), x, y)
        assert np.all(tree.feature_importances_ >= 0)

    @given(classification_data())
    @settings(max_examples=20, deadline=None)
    def test_training_fit_beats_base_rate(self, data):
        """On its own training data a deep tree never does worse than the
        constant predictor (in squared error)."""
        x, y = data
        tree = fit_tree(DecisionTree(max_depth=10, min_samples_leaf=1), x, y)
        predictions = tree.predict(x)
        mse_tree = np.mean((predictions - y) ** 2)
        mse_const = np.mean((y.mean() - y) ** 2)
        assert mse_tree <= mse_const + 1e-12


class TestForestProperties:
    @given(classification_data(min_rows=30))
    @settings(max_examples=15, deadline=None)
    def test_probabilities_bounded_and_deterministic(self, data):
        x, y = data
        forest = RandomForestClassifier(n_trees=4, min_samples_leaf=2, seed=9)
        forest.fit(x, y)
        p1 = forest.predict_proba(x)
        p2 = forest.predict_proba(x)
        assert np.array_equal(p1, p2)
        assert np.all((p1 >= 0) & (p1 <= 1))

    @given(classification_data(min_rows=30))
    @settings(max_examples=15, deadline=None)
    def test_importances_normalized(self, data):
        x, y = data
        forest = RandomForestClassifier(n_trees=4, min_samples_leaf=2, seed=9)
        forest.fit(x, y)
        imp = forest.feature_importances_
        assert np.all(imp >= 0)
        assert imp.sum() == pytest.approx(1.0) or imp.sum() == 0.0


class TestCalibrationProperties:
    @given(
        hnp.arrays(
            np.float64, st.integers(5, 200), elements=st.floats(0, 1, allow_nan=False)
        ),
        st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_isotonic_output_monotone_in_score(self, scores, seed):
        rng = np.random.default_rng(seed)
        y = (rng.random(len(scores)) < scores).astype(float)
        calibrator = IsotonicCalibrator().fit(scores, y)
        grid = np.linspace(0, 1, 64)
        out = calibrator.transform(grid)
        assert np.all(np.diff(out) >= -1e-12)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(5, 60), st.integers(1, 4)),
            elements=features,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_standardizer_round_trips_statistics(self, x):
        s = Standardizer().fit(x)
        z = s.transform(x)
        # Non-constant columns end up standardized; numerically-constant
        # ones (std at float-epsilon scale) collapse to ~0 instead of
        # amplifying cancellation noise.
        for j in range(x.shape[1]):
            col = x[:, j]
            if col.std() > 1e-12 * (abs(col.mean()) + 1.0):
                assert z[:, j].mean() == pytest.approx(0.0, abs=1e-7)
                assert z[:, j].std() == pytest.approx(1.0, abs=1e-7)
            else:
                assert np.all(np.abs(z[:, j]) < 1e-9)
