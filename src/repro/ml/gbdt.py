"""Gradient boosted decision trees (the GBDT baseline of Section 5.8).

Binary classification with logistic loss: each stage fits a variance-
criterion CART tree to the negative gradient (residual ``y - p``), then
replaces the leaf values with one Newton step
``sum(residual) / sum(p (1 - p))`` per leaf, and the ensemble advances with
the paper's 0.1 learning rate.
"""

from __future__ import annotations

import numpy as np

from ..config import PAPER
from ..errors import ModelError, NotFittedError
from .tree import DecisionTree, NodeTable, RankCodes, check_training_set


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


class GradientBoostedTrees:
    """LogitBoost-style GBDT for churn scoring.

    Parameters
    ----------
    n_trees:
        Boosting stages.
    learning_rate:
        Shrinkage; the paper fixes 0.1.
    max_depth / min_samples_leaf:
        Base-tree capacity controls (boosted trees are kept shallow).
    """

    def __init__(
        self,
        n_trees: int = 100,
        learning_rate: float = PAPER.learning_rate,
        max_depth: int = 4,
        min_samples_leaf: int = 20,
        seed: int = 0,
    ) -> None:
        if n_trees < 1:
            raise ModelError(f"n_trees must be >= 1, got {n_trees}")
        if not 0 < learning_rate <= 1:
            raise ModelError(f"learning_rate must be in (0, 1], got {learning_rate}")
        self.n_trees = n_trees
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self._table: NodeTable | None = None
        self._base_score = 0.0

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "GradientBoostedTrees":
        x, y, sample_weight = check_training_set(
            x, y, sample_weight, binary_labels=True
        )
        # x never changes between rounds: every stage's tree shares one presort.
        codes = RankCodes(x)
        rows = np.arange(len(y))
        prior = float(np.average(y, weights=sample_weight))
        prior = min(max(prior, 1e-6), 1 - 1e-6)
        self._base_score = float(np.log(prior / (1 - prior)))
        raw = np.full(len(y), self._base_score)
        rng = np.random.default_rng(self.seed)
        trees = []
        for _ in range(self.n_trees):
            p = _sigmoid(raw)
            residual = y - p
            tree = DecisionTree(
                criterion="mse",
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=None,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.grow(x, residual, sample_weight, codes, rows)
            self._newton_refit(tree, x, residual, p, sample_weight)
            raw = raw + self.learning_rate * tree.predict(x)
            trees.append(tree)
        self._table = NodeTable.compile(trees)
        return self

    @staticmethod
    def _newton_refit(
        tree: DecisionTree,
        x: np.ndarray,
        residual: np.ndarray,
        p: np.ndarray,
        sample_weight: np.ndarray,
    ) -> None:
        """Replace leaf means with the Newton step for logistic loss."""
        leaves = tree.apply(x)
        values = tree.leaf_values()
        hessian = np.maximum(p * (1 - p), 1e-6)
        numer = np.bincount(
            leaves, weights=sample_weight * residual, minlength=len(values)
        )
        denom = np.bincount(
            leaves, weights=sample_weight * hessian, minlength=len(values)
        )
        updated = values.copy()
        touched = denom > 0
        updated[touched] = numer[touched] / denom[touched]
        # Clip extreme steps for numerical stability on tiny leaves.
        np.clip(updated, -4.0, 4.0, out=updated)
        tree.set_leaf_values(updated)

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Raw additive score before the sigmoid."""
        table = self._table_checked()
        x = table.check(x)
        raw = np.full(len(x), self._base_score)
        for values in table.tree_values(x):
            raw += self.learning_rate * values
        return raw

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Churner probability."""
        return _sigmoid(self.decision_function(x))

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(x) >= threshold).astype(np.int64)

    def staged_train_loss(
        self, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Log-loss after each stage (diagnostic; monotone on train data)."""
        table = self._table_checked()
        x = table.check(x)
        y = np.asarray(y, dtype=np.float64)
        raw = np.full(len(x), self._base_score)
        losses = []
        for values in table.tree_values(x):
            raw = raw + self.learning_rate * values
            p = np.clip(_sigmoid(raw), 1e-12, 1 - 1e-12)
            losses.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
        return np.asarray(losses)

    def _table_checked(self) -> NodeTable:
        if self._table is None:
            raise NotFittedError("GBDT has not been fitted")
        return self._table
