"""Random Forest (Section 4.2).

Bagging over CART trees with √N feature subspaces; the churner likelihood of
a test instance is the average of tree outputs (Eq. 4), and per-feature
importance sums Gini improvements over all trees (Eq. 7).  The deployed
system uses 500 trees with a 100-instance leaf floor; those are the defaults
of :meth:`RandomForestClassifier.paper_settings`.

Training fans out chunks of trees through an
:class:`~repro.dataplat.executor.ExecutorBackend`; the training set is the
fan-out's resident, so process workers inherit it by fork and a task is
only a list of tree indices.  Fits are **bit-identical** across backends:
every tree's bootstrap indices and subspace seed are pre-drawn from the
master RNG in tree order before any task is submitted, and trees are
fitted independently.  A fitted forest
is its :class:`~repro.ml.tree.NodeTable` plus the Eq. 7 importances summed
at fit; the trees themselves are not kept.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import PAPER
from ..dataplat.executor import (
    ExecutorBackend,
    Resident,
    SerialBackend,
    resolve_fit_backend,
)
from ..dataplat.observability import span
from ..errors import ModelError, NotFittedError
from .tree import DecisionTree, NodeTable, RankCodes, check_training_set


class RandomForestClassifier:
    """Bagged ensemble of Gini CART trees for churn scoring.

    Parameters
    ----------
    n_trees:
        Ensemble size (T in Eq. 4).
    min_samples_leaf:
        Per-tree leaf floor (the paper's over-fitting guard).
    max_depth:
        Per-tree depth cap.
    max_features:
        Per-node feature subsample; the paper uses ``"sqrt"``.
    seed:
        Master seed; each tree derives its own bootstrap and subspace RNG.
    backend:
        Execution backend for per-tree fit tasks (any spec accepted
        by :func:`~repro.dataplat.executor.resolve_backend`); ``None`` uses
        the process-wide default, except that a fit too small to pay for a
        fork runs inline (:func:`~repro.dataplat.executor.resolve_fit_backend`).
        Not part of the model state: it is
        dropped on pickling, so a fitted forest travels to worker processes
        without dragging a pool along.
    """

    def __init__(
        self,
        n_trees: int = 100,
        min_samples_leaf: int = 10,
        max_depth: int = 25,
        max_features: str | int | None = "sqrt",
        seed: int = 0,
        backend: "ExecutorBackend | str | None" = None,
    ) -> None:
        if n_trees < 1:
            raise ModelError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = n_trees
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth
        self.max_features = max_features
        self.seed = seed
        self._backend = backend
        self._table: NodeTable | None = None
        self._importances: np.ndarray | None = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_backend"] = None  # backends own OS resources; never pickle
        return state

    @classmethod
    def paper_settings(cls, seed: int = 0) -> "RandomForestClassifier":
        """The deployed configuration: 500 trees, 100-instance leaves."""
        return cls(
            n_trees=PAPER.rf_trees,
            min_samples_leaf=PAPER.rf_min_leaf,
            seed=seed,
        )

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
        backend: "ExecutorBackend | str | None" = None,
    ) -> "RandomForestClassifier":
        x, y, sample_weight = check_training_set(
            x, y, sample_weight, binary_labels=True
        )
        rng = np.random.default_rng(self.seed)
        n = len(y)
        # Pre-draw every tree's bootstrap and subspace seed in tree order
        # BEFORE dispatch: tree t's randomness never depends on the backend
        # or on scheduling, so parallel fits are bit-identical to serial.
        draws = []
        for t in range(self.n_trees):
            boot = rng.integers(0, n, size=n)
            draws.append((boot, int(rng.integers(0, 2**31 - 1))))
        params = {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }
        resolved = resolve_fit_backend(
            backend if backend is not None else self._backend, n * self.n_trees
        )
        chunks = _chunk_indices(self.n_trees, resolved.parallelism)
        with span(
            "forest.fit", trees=self.n_trees, rows=n, features=x.shape[1]
        ) as sp:
            start = time.perf_counter()
            # One presort per forest: every tree sorts rank codes, not floats.
            codes = RankCodes(x)
            sp.incr("presort_s", time.perf_counter() - start)
            # A fresh, read-only resident per fit: a constant stamp.
            data = Resident(
                params=params, x=x, y=y, w=sample_weight, codes=codes, draws=draws
            )
            results = resolved.map_resident(_fit_tree_chunk, data, 0, chunks)
            trees = [tree for trees, _ in results for tree in trees]
            self._table = NodeTable.compile(trees)
            importances = np.zeros(x.shape[1])
            for tree in trees:
                importances += tree.feature_importances_
            self._importances = importances
            sp.incr("nodes", len(self._table.value))
            sp.incr("split_candidates", sum(evaluated for _, evaluated in results))
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Churner likelihood: the average of tree outputs (Eq. 4).

        Tree outputs are added one tree at a time in tree order, so the
        floating-point sum is the one a per-tree loop computes.
        """
        table = self._table_checked()
        x = table.check(x)
        out = np.zeros(len(x))
        for row in table.tree_values(x):
            out += row
        return out / len(table.roots)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Eq. 7 summed over trees, normalized to sum to 1."""
        total = self._importances
        if total is None:
            raise NotFittedError("forest has not been fitted")
        s = total.sum()
        return total / s if s > 0 else total.copy()

    def _table_checked(self) -> NodeTable:
        if self._table is None:
            raise NotFittedError("forest has not been fitted")
        return self._table


def _chunk_indices(n_items: int, parallelism: int) -> list[list[int]]:
    """Contiguous task chunks: one per worker slot."""
    n_chunks = max(1, min(n_items, parallelism))
    return [list(chunk) for chunk in np.array_split(np.arange(n_items), n_chunks)]


def _fit_tree_chunk(data: Resident, chunk: list[int]):
    """Fit the trees of ``chunk`` from their pre-drawn (bootstrap, seed).

    Top-level by design: process backends pickle the callable by name.
    Each tree is fully determined by its draw, so chunking is free to
    follow the backend's parallelism without affecting results.  Returns
    the trees and their summed split evaluations (a ``forest.fit`` span
    counter).
    """
    trees, evaluated = [], 0
    for t in chunk:
        boot, seed = data.draws[t]
        tree = DecisionTree(criterion="gini", seed=seed, **data.params)
        # The bootstrap is the tree's root row index, never an x[boot] copy.
        evaluated += tree.grow(data.x, data.y, data.w, data.codes, boot)
        trees.append(tree)
    return trees, evaluated


def _fit_class_forest(data: Resident, index: int):
    """Fit one one-vs-rest member forest, ``data.members[index]`` =
    ``(unfitted forest, 0/1 target)``, on the shared ``x``."""
    forest, target = data.members[index]
    # The class fan-out is the parallel one: each member fits inline.
    return forest.fit(data.x, target, backend=SerialBackend())


class OneVsRestForest:
    """Multi-class RF via one-vs-rest binary forests.

    The retention matcher (Section 4.3) classifies potential churners into
    C offer categories; this wraps one :class:`RandomForestClassifier` per
    class and predicts the argmax of the per-class churn-style likelihoods.
    """

    def __init__(
        self,
        n_classes: int,
        n_trees: int = 50,
        min_samples_leaf: int = 10,
        max_depth: int = 25,
        seed: int = 0,
    ) -> None:
        if n_classes < 2:
            raise ModelError(f"n_classes must be >= 2, got {n_classes}")
        self.n_classes = n_classes
        self.n_trees = n_trees
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth
        self.seed = seed
        self._forests: list[RandomForestClassifier] | None = None

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        backend: "ExecutorBackend | str | None" = None,
    ) -> "OneVsRestForest":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if len(x) != len(y):
            raise ModelError(f"x has {len(x)} rows but y has {len(y)}")
        if y.min() < 0 or y.max() >= self.n_classes:
            raise ModelError(
                f"labels must be in 0..{self.n_classes - 1}, "
                f"got range [{y.min()}, {y.max()}]"
            )
        # Per-class fits are independent (seeds fixed per class), so they
        # fan out whole over the shared x; degenerate classes short-circuit
        # in the parent.
        members = []
        slots: list[tuple[int, "_ConstantScorer | None"]] = []
        for c in range(self.n_classes):
            target = (y == c).astype(np.float64)
            if target.min() == target.max():
                # Degenerate class (absent or universal): constant score.
                slots.append((c, _ConstantScorer(float(target[0]))))
                continue
            forest = RandomForestClassifier(
                n_trees=self.n_trees,
                min_samples_leaf=self.min_samples_leaf,
                max_depth=self.max_depth,
                seed=self.seed + 1000 * c,
            )
            slots.append((c, None))
            members.append((forest, target))
        resolved = resolve_fit_backend(
            backend, len(x) * self.n_trees * len(members)
        )
        fitted = iter(
            resolved.map_resident(
                _fit_class_forest,
                Resident(x=x, members=members),
                0,
                range(len(members)),
            )
        )
        self._forests = [
            scorer if scorer is not None else next(fitted) for _, scorer in slots
        ]
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """(n, C) per-class scores, row-normalized."""
        if self._forests is None:
            raise NotFittedError("OneVsRestForest has not been fitted")
        scores = np.column_stack(
            [f.predict_proba(x) for f in self._forests]
        )
        totals = scores.sum(axis=1, keepdims=True)
        return scores / np.maximum(totals, 1e-12)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Most likely class per row."""
        return self.predict_proba(x).argmax(axis=1)


class _ConstantScorer:
    """Stand-in forest for a class absent from the training data."""

    def __init__(self, value: float) -> None:
        self._value = value

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return np.full(len(x), self._value)
