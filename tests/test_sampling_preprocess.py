"""Unit tests for imbalance treatments and preprocessing."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml.preprocess import (
    QuantileBinner,
    Standardizer,
    one_hot,
)
from repro.ml.sampling import STRATEGIES, rebalance


@pytest.fixture()
def imbalanced(rng):
    x = rng.normal(size=(1000, 3))
    y = (rng.random(1000) < 0.1).astype(int)
    return x, y


class TestRebalance:
    def test_none_is_identity(self, imbalanced):
        x, y = imbalanced
        xb, yb, w = rebalance(x, y, "none")
        assert np.array_equal(xb, x)
        assert np.array_equal(yb, y)
        assert np.all(w == 1.0)

    def test_weighted_equalizes_class_mass(self, imbalanced):
        x, y = imbalanced
        _, _, w = rebalance(x, y, "weighted")
        assert w[y == 1].sum() == pytest.approx(w[y == 0].sum())
        assert len(w) == len(y)

    def test_up_matches_counts(self, imbalanced, rng):
        x, y = imbalanced
        xb, yb, w = rebalance(x, y, "up", rng)
        assert (yb == 1).sum() == (yb == 0).sum()
        assert len(xb) > len(x)
        assert np.all(w == 1.0)

    def test_down_matches_counts(self, imbalanced, rng):
        x, y = imbalanced
        xb, yb, _ = rebalance(x, y, "down", rng)
        assert (yb == 1).sum() == (yb == 0).sum()
        assert len(xb) == 2 * (y == 1).sum()

    def test_up_preserves_minority_rows(self, imbalanced, rng):
        x, y = imbalanced
        xb, yb, _ = rebalance(x, y, "up", rng)
        # Every original positive row value appears among the rebalanced.
        orig = {tuple(row) for row in x[y == 1]}
        new = {tuple(row) for row in xb[yb == 1]}
        assert orig <= new

    def test_majority_flip(self, rng):
        # Works when positives outnumber negatives too.
        x = rng.normal(size=(100, 2))
        y = (rng.random(100) < 0.9).astype(int)
        xb, yb, _ = rebalance(x, y, "down", rng)
        assert (yb == 1).sum() == (yb == 0).sum()

    def test_unknown_strategy(self, imbalanced):
        with pytest.raises(ModelError):
            rebalance(*imbalanced, "smote")

    def test_single_class_rejected(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ModelError):
            rebalance(x, np.zeros(10, dtype=int), "weighted")

    def test_length_mismatch(self, rng):
        with pytest.raises(ModelError):
            rebalance(rng.normal(size=(5, 2)), np.zeros(4, dtype=int))

    def test_all_strategies_listed(self):
        assert set(STRATEGIES) == {"none", "up", "down", "weighted"}


class TestStandardizer:
    def test_zero_mean_unit_std(self, rng):
        x = rng.normal(5, 3, size=(500, 4))
        z = Standardizer().fit(x).transform(x)
        assert np.allclose(z.mean(axis=0), 0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1, atol=1e-10)

    def test_constant_column_safe(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z = Standardizer().fit(x).transform(x)
        assert np.all(np.isfinite(z))
        assert np.allclose(z[:, 0], 0)

    def test_transform_uses_fit_statistics(self, rng):
        train = rng.normal(size=(100, 2))
        s = Standardizer().fit(train)
        test = rng.normal(10, 1, size=(50, 2))
        z = s.transform(test)
        assert z.mean() > 5  # shifted data stays shifted

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            Standardizer().transform(np.zeros((1, 1)))

    def test_width_checked(self, rng):
        s = Standardizer().fit(rng.normal(size=(10, 3)))
        with pytest.raises(ModelError):
            s.transform(np.zeros((5, 2)))


class TestQuantileBinner:
    def test_codes_in_range(self, rng):
        x = rng.normal(size=(500, 3))
        binner = QuantileBinner(n_bins=8).fit(x)
        codes = binner.transform(x)
        assert codes.min() >= 0
        assert codes.max() < 8

    def test_roughly_equal_frequency(self, rng):
        x = rng.normal(size=(4000, 1))
        codes = QuantileBinner(n_bins=4).fit(x).transform(x)
        counts = np.bincount(codes[:, 0], minlength=4)
        assert counts.min() > 800

    def test_low_cardinality_column(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        binner = QuantileBinner(n_bins=8).fit(x)
        codes = binner.transform(x)
        assert len(np.unique(codes)) == 2

    def test_bin_counts(self, rng):
        x = rng.normal(size=(100, 2))
        binner = QuantileBinner(n_bins=4).fit(x)
        assert all(1 <= c <= 4 for c in binner.bin_counts())

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            QuantileBinner().transform(np.zeros((1, 1)))

    def test_min_bins(self):
        with pytest.raises(ModelError):
            QuantileBinner(n_bins=1)


class TestOneHot:
    def test_expansion(self):
        codes = np.array([[0, 1], [1, 0]])
        out = one_hot(codes, counts=[2, 2])
        assert out.shape == (2, 4)
        assert out.sum() == 4.0
        assert np.array_equal(out[0], [1, 0, 0, 1])

    def test_inferred_counts(self):
        codes = np.array([[0], [2]])
        out = one_hot(codes)
        assert out.shape == (2, 3)

    def test_out_of_range_clipped(self):
        codes = np.array([[5]])
        out = one_hot(codes, counts=[3])
        assert out[0].tolist() == [0.0, 0.0, 1.0]

    def test_counts_length_checked(self):
        with pytest.raises(ModelError):
            one_hot(np.zeros((1, 2), dtype=int), counts=[2])
