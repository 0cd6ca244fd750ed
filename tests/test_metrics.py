"""Unit tests for the evaluation metrics (paper Eq. 8-10)."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.metrics import (
    average_precision,
    pr_auc,
    precision_at,
    precision_recall_curve,
    recall_at,
    roc_auc,
)


@pytest.fixture()
def perfect():
    y = np.array([0, 0, 0, 1, 1])
    s = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
    return y, s


class TestRocAuc:
    def test_perfect_ranking(self, perfect):
        assert roc_auc(*perfect) == 1.0

    def test_inverted_ranking(self, perfect):
        y, s = perfect
        assert roc_auc(y, -s) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        y = (rng.random(4000) < 0.3).astype(int)
        s = rng.random(4000)
        assert abs(roc_auc(y, s) - 0.5) < 0.05

    def test_ties_average_ranks(self):
        y = np.array([0, 1, 0, 1])
        s = np.array([0.5, 0.5, 0.5, 0.5])
        assert roc_auc(y, s) == pytest.approx(0.5)

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(1)
        y = (rng.random(200) < 0.4).astype(int)
        s = rng.random(200)
        pos = s[y == 1]
        neg = s[y == 0]
        wins = sum(
            1.0 if p > q else 0.5 if p == q else 0.0
            for p in pos
            for q in neg
        )
        assert roc_auc(y, s) == pytest.approx(wins / (len(pos) * len(neg)))

    def test_single_class_rejected(self):
        with pytest.raises(ModelError):
            roc_auc(np.array([1, 1]), np.array([0.5, 0.6]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            roc_auc(np.array([0, 1]), np.array([0.5]))

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ModelError):
            roc_auc(np.array([0, 2]), np.array([0.5, 0.6]))


class TestPrAuc:
    def test_perfect_ranking(self, perfect):
        assert pr_auc(*perfect) == 1.0

    def test_random_close_to_base_rate(self):
        rng = np.random.default_rng(2)
        y = (rng.random(5000) < 0.2).astype(int)
        s = rng.random(5000)
        assert pr_auc(y, s) == pytest.approx(0.2, abs=0.05)

    def test_alias(self, perfect):
        assert pr_auc(*perfect) == average_precision(*perfect)

    def test_curve_monotone_recall(self):
        rng = np.random.default_rng(3)
        y = (rng.random(100) < 0.3).astype(int)
        s = rng.random(100)
        _, recall, _ = precision_recall_curve(y, s)
        assert np.all(np.diff(recall) >= 0)
        assert recall[-1] == 1.0

    def test_curve_requires_positives(self):
        with pytest.raises(ModelError):
            precision_recall_curve(np.array([0, 0]), np.array([0.1, 0.2]))


class TestTopU:
    def test_recall_at_definition(self, perfect):
        y, s = perfect
        assert recall_at(y, s, 1) == pytest.approx(0.5)
        assert recall_at(y, s, 2) == pytest.approx(1.0)

    def test_precision_at_definition(self, perfect):
        y, s = perfect
        assert precision_at(y, s, 2) == pytest.approx(1.0)
        assert precision_at(y, s, 4) == pytest.approx(0.5)

    def test_u_larger_than_n(self, perfect):
        y, s = perfect
        assert recall_at(y, s, 100) == 1.0
        assert precision_at(y, s, 100) == pytest.approx(2 / 5)

    def test_u_must_be_positive(self, perfect):
        with pytest.raises(ModelError):
            recall_at(*perfect, 0)

    def test_recall_increases_with_u(self):
        rng = np.random.default_rng(4)
        y = (rng.random(500) < 0.2).astype(int)
        s = rng.random(500)
        values = [recall_at(y, s, u) for u in (10, 50, 100, 400)]
        assert values == sorted(values)

    def test_precision_recall_tradeoff_at_full_list(self):
        rng = np.random.default_rng(5)
        y = (rng.random(300) < 0.3).astype(int)
        s = rng.random(300)
        assert precision_at(y, s, 300) == pytest.approx(y.mean())
        assert recall_at(y, s, 300) == 1.0
