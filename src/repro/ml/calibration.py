"""Probability calibration for churn likelihoods.

The retention system budgets campaigns off the churn likelihood (Eq. 4);
bagged-vote scores are well *ranked* but not well *calibrated*, so spending
decisions benefit from mapping scores to true probabilities.
:class:`IsotonicCalibrator` does it by pool-adjacent-violators (PAVA)
monotone regression, non-parametric; :func:`expected_calibration_error`
measures the gap.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError, NotFittedError


def expected_calibration_error(
    y_true: np.ndarray, probabilities: np.ndarray, n_bins: int = 10
) -> float:
    """ECE: bin-weighted |empirical rate − mean predicted probability|."""
    y_true = np.asarray(y_true, dtype=np.float64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if n_bins < 1:
        raise ModelError(f"n_bins must be >= 1, got {n_bins}")
    edges = np.linspace(0, 1, n_bins + 1)
    bins = np.clip(np.digitize(probabilities, edges[1:-1]), 0, n_bins - 1)
    total = len(y_true)
    ece = 0.0
    for b in range(n_bins):
        mask = bins == b
        if not mask.any():
            continue
        gap = abs(y_true[mask].mean() - probabilities[mask].mean())
        ece += (mask.sum() / total) * gap
    return float(ece)


class IsotonicCalibrator:
    """Monotone non-parametric calibration via pool-adjacent-violators."""

    def __init__(self) -> None:
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def fit(self, scores: np.ndarray, y_true: np.ndarray) -> "IsotonicCalibrator":
        scores = np.asarray(scores, dtype=np.float64)
        y_true = np.asarray(y_true, dtype=np.float64)
        if scores.shape != y_true.shape or scores.ndim != 1:
            raise ModelError("scores and labels must be equal-length 1-D arrays")
        if len(scores) == 0:
            raise ModelError("cannot calibrate on an empty sample")
        order = np.argsort(scores, kind="mergesort")
        x = scores[order]
        y = y_true[order]
        # PAVA with block merging: each block holds (value sum, weight).
        values: list[float] = []
        weights: list[float] = []
        starts: list[int] = []
        for i, target in enumerate(y.tolist()):
            values.append(target)
            weights.append(1.0)
            starts.append(i)
            # Merge backwards while monotonicity is violated.
            while len(values) > 1 and values[-2] > values[-1]:
                merged_weight = weights[-2] + weights[-1]
                merged_value = (
                    values[-2] * weights[-2] + values[-1] * weights[-1]
                ) / merged_weight
                values[-2:] = [merged_value]
                weights[-2:] = [merged_weight]
                starts.pop()
        fitted = np.empty(len(y))
        boundaries = starts + [len(y)]
        for value, lo, hi in zip(values, boundaries[:-1], boundaries[1:]):
            fitted[lo:hi] = value
        self._x = x
        self._y = fitted
        return self

    def transform(self, scores: np.ndarray) -> np.ndarray:
        """Step-interpolated calibrated probabilities (clipped to [0, 1])."""
        if self._x is None or self._y is None:
            raise NotFittedError("IsotonicCalibrator.transform called before fit")
        scores = np.asarray(scores, dtype=np.float64)
        out = np.interp(scores, self._x, self._y)
        return np.clip(out, 0.0, 1.0)

    @property
    def fitted_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted scores, fitted monotone values) — diagnostics."""
        if self._x is None or self._y is None:
            raise NotFittedError("IsotonicCalibrator has not been fitted")
        return self._x.copy(), self._y.copy()
