"""Tests for probability calibration (isotonic, ECE)."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml.calibration import IsotonicCalibrator, expected_calibration_error


@pytest.fixture(scope="module")
def distorted():
    """Scores that rank perfectly but are badly mis-scaled."""
    rng = np.random.default_rng(0)
    true_p = rng.uniform(0.0, 1.0, size=4000)
    y = (rng.random(4000) < true_p).astype(int)
    scores = true_p ** 3  # monotone distortion
    return scores, y, true_p


class TestECE:
    def test_calibrated_scores_have_low_ece(self, distorted):
        _, y, true_p = distorted
        assert expected_calibration_error(y, true_p) < 0.05

    def test_distorted_scores_have_high_ece(self, distorted):
        scores, y, _ = distorted
        assert expected_calibration_error(y, scores) > 0.1

    def test_bins_validated(self):
        with pytest.raises(ModelError):
            expected_calibration_error(np.array([0]), np.array([0.5]), n_bins=0)


class TestIsotonic:
    def test_fitted_curve_is_monotone(self, distorted):
        scores, y, _ = distorted
        calibrator = IsotonicCalibrator().fit(scores, y)
        _, fitted = calibrator.fitted_curve
        assert np.all(np.diff(fitted) >= -1e-12)

    def test_improves_calibration(self, distorted):
        scores, y, _ = distorted
        calibrator = IsotonicCalibrator().fit(scores[:3000], y[:3000])
        calibrated = calibrator.transform(scores[3000:])
        before = expected_calibration_error(y[3000:], scores[3000:])
        after = expected_calibration_error(y[3000:], calibrated)
        assert after < before

    def test_transform_in_unit_interval(self, distorted):
        scores, y, _ = distorted
        calibrator = IsotonicCalibrator().fit(scores, y)
        out = calibrator.transform(np.array([-5.0, 0.5, 5.0]))
        assert np.all((out >= 0) & (out <= 1))

    def test_pava_on_tiny_example(self):
        # Classic PAVA: violating pair gets pooled to its mean.
        scores = np.array([0.1, 0.2, 0.3, 0.4])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        calibrator = IsotonicCalibrator().fit(scores, y)
        _, fitted = calibrator.fitted_curve
        assert fitted.tolist() == [0.0, 0.5, 0.5, 1.0]

    def test_preserves_ranking_weakly(self, distorted):
        scores, y, _ = distorted
        calibrator = IsotonicCalibrator().fit(scores, y)
        out = calibrator.transform(np.sort(scores))
        assert np.all(np.diff(out) >= -1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            IsotonicCalibrator().fit(np.array([]), np.array([]))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            IsotonicCalibrator().transform(np.array([0.5]))


class TestOnChurnScores:
    def test_rf_vote_scores_benefit_from_calibration(self, small_world, small_scale, small_model):
        """End-to-end: calibrate the churn model's scores on one month and
        check the next month's probabilities improve."""
        from repro.core.pipeline import ChurnPipeline
        from repro.core.window import WindowSpec

        pipeline = ChurnPipeline(
            small_world, small_scale, categories=("F1",), model=small_model
        )
        calib_window = pipeline.run_window(WindowSpec((4,), 5))
        test_window = pipeline.run_window(WindowSpec((4,), 6))
        calibrator = IsotonicCalibrator().fit(
            calib_window.scores, calib_window.labels
        )
        raw_ece = expected_calibration_error(
            test_window.labels, test_window.scores
        )
        cal_ece = expected_calibration_error(
            test_window.labels, calibrator.transform(test_window.scores)
        )
        # Weighted-instance training inflates raw vote scores; calibration
        # brings them back toward true probabilities.
        assert cal_ece < raw_ece
