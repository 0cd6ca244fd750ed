"""CART decision trees with the paper's Gini-improvement criterion.

Section 4.2 of the paper: each node evaluates every candidate split point of
a random √N-subset of features and takes the split with the maximum Gini
improvement (Eq. 5–6); splitting stops when a node holds fewer than the
minimum leaf count.  Instance weights are supported throughout because the
paper's preferred imbalance treatment is instance weighting (Table 7).

The same tree, with a variance (MSE) criterion, serves as the base learner
for GBDT.

Split search is batched per node over rank codes: :class:`RankCodes` sorts
every feature column once per fit, and a node then evaluates *all* split
points of *all* its candidate features in one ``(candidates, rows)`` block —
one gather, one stable radix argsort of 16-bit code digits, one cumulative
sum per mass array, one argmax over every boundary between distinct values.
Ensembles build the codes once and hand each tree its rows
(:meth:`DecisionTree.grow`).  DESIGN.md §16 says why the trees are the same,
bit for bit, as a per-feature float sort would grow.

Prediction has one kernel, :class:`NodeTable`: an ensemble's trees are
compiled once into one flat node table and walked in lockstep.  That table
is the fitted ensemble; the trees are only the fit's building blocks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError, NotFittedError, TrainingError

#: Sentinel feature id marking a leaf node.
LEAF = -1

#: Most (candidate × row) cells one split-search block holds: a node with
#: more is searched a few candidates at a time.  Keeps the kernel's float64
#: temporaries cache-sized (256 KiB each) whatever the training size — an
#: all-feature GBDT root runs 1.6x faster this way than as one block.
_BLOCK_CELLS = 1 << 15

#: Most (tree × row) cells one predict walk holds: a larger predict walks
#: its trees a block at a time, so scoring 200k rows on 500 trees never
#: allocates gigabytes of node ids.
_WALK_CELLS = 1 << 16


@dataclass
class _Split:
    feature: int
    threshold: float
    improvement: float
    left_index: np.ndarray
    right_index: np.ndarray


class RankCodes:
    """Dense per-feature rank codes of a training matrix, built once per fit.

    ``ranks[j, i]`` is the rank of ``x[i, j]`` among the sorted distinct
    values ``distinct[j]`` of column ``j``: equal code ⇔ equal value and
    code order = value order, so a stable sort of codes *is* the stable
    sort of values, on small unsigned ints instead of float64.  Codes are
    feature-major so a node's candidate block is gathered from contiguous
    rows.  NaN has no rank: a column holding one raises ``ModelError``.
    """

    __slots__ = ("ranks", "distinct")

    def __init__(self, x: np.ndarray) -> None:
        n, n_features = x.shape
        ranks = np.empty((n_features, n), dtype=np.uint32)
        self.distinct: list[np.ndarray] = []
        for j in range(n_features):
            values, inverse = np.unique(x[:, j], return_inverse=True)
            if np.isnan(values[-1]):  # unique sorts NaN last
                raise ModelError(
                    f"x has NaN in feature column {j}; impute or drop it "
                    f"before fitting (±inf is allowed)"
                )
            ranks[j] = inverse
            self.distinct.append(values)
        if max((len(v) for v in self.distinct), default=0) <= 1 << 16:
            ranks = ranks.astype(np.uint16)
        self.ranks = ranks


def _stable_order(block: np.ndarray) -> np.ndarray:
    """Row-wise stable argsort of unsigned codes: LSD radix on 16-bit digits.

    numpy sorts 16-bit keys with a radix sort, so codes below 65 536 take
    one pass; wider codes loop over their higher digits.
    """
    order = block.astype(np.uint16, copy=False).argsort(axis=1, kind="stable")
    for shift in range(16, int(block.max(initial=0)).bit_length(), 16):
        digit = np.take_along_axis(block >> shift, order, axis=1).astype(np.uint16)
        order = np.take_along_axis(
            order, digit.argsort(axis=1, kind="stable"), axis=1
        )
    return order


def check_training_set(
    x: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None,
    binary_labels: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate and cast ``(x, y, sample_weight)`` for a tree-based fit.

    Shared by the tree, the forest and GBDT so an ensemble validates once,
    not per tree; ``sample_weight=None`` becomes unit weights.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise ModelError(f"x must be 2-D, got {x.ndim}-D")
    if len(x) != len(y):
        raise ModelError(f"x has {len(x)} rows but y has {len(y)}")
    if len(x) == 0:
        raise TrainingError("cannot fit a tree on zero instances")
    if binary_labels:
        labels = set(np.unique(y).tolist())
        if not labels <= {0.0, 1.0}:
            raise ModelError(f"labels must be 0/1, got {labels}")
    if sample_weight is None:
        sample_weight = np.ones(len(y))
    else:
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
        if len(sample_weight) != len(y):
            raise ModelError("sample_weight length mismatch")
        if np.any(sample_weight < 0):
            raise ModelError("sample weights must be non-negative")
    return x, y, sample_weight


class DecisionTree:
    """A single CART tree.

    Parameters
    ----------
    criterion:
        ``"gini"`` for binary classification (leaf value = weighted positive
        fraction) or ``"mse"`` for regression (leaf value = weighted mean).
    max_depth:
        Depth cap; root is depth 0.
    min_samples_leaf:
        Minimum (unweighted) instances in each child of a split — the
        paper's over-fitting guard, set to 100 in deployment.
    max_features:
        ``None`` (all), ``"sqrt"`` (the paper's √N subspace) or an int.
    seed:
        Feature-subsampling RNG seed.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int = 25,
        min_samples_leaf: int = 1,
        max_features: str | int | None = None,
        seed: int = 0,
    ) -> None:
        if criterion not in ("gini", "mse"):
            raise ModelError(f"unknown criterion {criterion!r}")
        if max_depth < 1:
            raise ModelError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ModelError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        # Flat array representation, filled by fit().
        self._feature: np.ndarray | None = None
        self._threshold: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._value: np.ndarray | None = None
        self._importances: np.ndarray | None = None
        self._n_features = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "DecisionTree":
        x, y, sample_weight = check_training_set(
            x, y, sample_weight, binary_labels=self.criterion == "gini"
        )
        self.grow(x, y, sample_weight, RankCodes(x), np.arange(len(y)))
        return self

    def grow(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray,
        codes: RankCodes,
        rows: np.ndarray,
    ) -> int:
        """Fit on ``rows`` of an already validated, rank-coded training set.

        The ensemble entry point: forests and GBDT validate and rank-code
        ``x`` once (:func:`check_training_set`, :class:`RankCodes`) and give
        every tree its root row index — a bootstrap draw, in draw order and
        with its duplicates, grows the same tree as fitting the
        materialized ``x[rows]`` copy.  Returns the number of
        (node, candidate feature) split evaluations, for tracing.
        """
        self._n_features = x.shape[1]
        n_candidates = self._resolve_max_features(x.shape[1])
        rng = np.random.default_rng(self.seed)

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        importances = np.zeros(x.shape[1])
        total_weight = sample_weight[rows].sum()
        every_feature = np.arange(x.shape[1])
        searched = 0

        # (node_id, row indices, depth) — depth-first construction.
        stack = [(self._new_node(feature, threshold, left, right, value), rows, 0)]
        while stack:
            node_id, index, depth = stack.pop()
            w = sample_weight[index]
            t = y[index]
            wt = w * t
            w_total = w.sum()
            mean = float(wt.sum() / w_total) if w_total > 0 else float(t.mean())
            value[node_id] = mean
            if (
                depth >= self.max_depth
                or len(index) < 2 * self.min_samples_leaf
                or _is_pure(t)
            ):
                continue
            if n_candidates < x.shape[1]:
                candidates = rng.choice(x.shape[1], size=n_candidates, replace=False)
            else:
                candidates = every_feature
            searched += len(candidates)
            if w_total <= 0:
                continue
            split = self._best_split(
                x, codes, index, w, t, wt, w_total, mean, candidates
            )
            if split is None:
                continue
            importances[split.feature] += split.improvement * (
                w_total / total_weight
            )
            feature[node_id] = split.feature
            threshold[node_id] = split.threshold
            left_id = self._new_node(feature, threshold, left, right, value)
            right_id = self._new_node(feature, threshold, left, right, value)
            left[node_id] = left_id
            right[node_id] = right_id
            stack.append((left_id, split.left_index, depth + 1))
            stack.append((right_id, split.right_index, depth + 1))

        self._feature = np.asarray(feature, dtype=np.int64)
        self._threshold = np.asarray(threshold, dtype=np.float64)
        self._left = np.asarray(left, dtype=np.int64)
        self._right = np.asarray(right, dtype=np.int64)
        self._value = np.asarray(value, dtype=np.float64)
        self._importances = importances
        return searched

    @staticmethod
    def _new_node(feature, threshold, left, right, value) -> int:
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def _resolve_max_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, n_features)
        raise ModelError(f"bad max_features: {self.max_features!r}")

    def _best_split(
        self,
        x: np.ndarray,
        codes: RankCodes,
        index: np.ndarray,
        w: np.ndarray,
        t: np.ndarray,
        wt: np.ndarray,
        w_total: float,
        mean: float,
        candidates: np.ndarray,
    ) -> _Split | None:
        """The split of one node with the largest impurity improvement.

        Candidates are searched a block at a time; a later block only wins
        with a strictly larger improvement, so ties go to the earliest
        candidate, as they would in a feature-by-feature scan.
        """
        if self.criterion == "gini":
            parent_impurity = 1.0 - mean * mean - (1 - mean) * (1 - mean)
            masses = (w, wt)
        else:
            parent_impurity = float((w * (t - mean) ** 2).sum() / w_total)
            masses = (w, wt, wt * t)
        best, floor = None, 1e-12
        step = max(1, _BLOCK_CELLS // len(index))
        for start in range(0, len(candidates), step):
            split = self._block_split(
                x, codes, index, masses, w_total, parent_impurity,
                candidates[start : start + step], floor,
            )
            if split is not None:
                best, floor = split, split.improvement
        return best

    def _block_split(
        self,
        x: np.ndarray,
        codes: RankCodes,
        index: np.ndarray,
        masses: tuple[np.ndarray, ...],
        w_total: float,
        parent_impurity: float,
        candidates: np.ndarray,
        floor: float,
    ) -> _Split | None:
        """Best usable split over a block of candidates, if it beats ``floor``.

        Row ``r`` of every ``(candidates, rows)`` array belongs to candidate
        ``r``; boundary ``b`` sends its sorted rows ``..b`` left.  Boundaries
        lie between distinct codes and leave ``min_samples_leaf`` rows on
        both sides; everything after the cumulative sums runs on the
        boundaries of all candidates at once, flattened candidate-major.
        """
        c, m = len(candidates), len(index)
        lo, hi = self.min_samples_leaf - 1, m - self.min_samples_leaf
        n = codes.ranks.shape[1]
        block = codes.ranks.reshape(-1).take(candidates[:, None] * n + index)
        order = _stable_order(block)
        ranked = block.reshape(-1).take(order + (np.arange(c) * m)[:, None])
        is_boundary = np.zeros((c, m), dtype=bool)
        np.not_equal(
            ranked[:, lo:hi], ranked[:, lo + 1 : hi + 1], out=is_boundary[:, lo:hi]
        )
        at = np.flatnonzero(is_boundary)
        if len(at) == 0:
            return None
        per_candidate = np.count_nonzero(is_boundary, axis=1)
        sums = [np.cumsum(mass.take(order), axis=1) for mass in masses]
        w_left, *lefts = [cumulative.reshape(-1).take(at) for cumulative in sums]
        w_right = w_total - w_left
        rights = [
            np.repeat(cumulative[:, -1], per_candidate) - left
            for cumulative, left in zip(sums[1:], lefts)
        ]
        if self.criterion == "gini":
            impurity_left = _gini_from_mass(lefts[0], w_left)
            impurity_right = _gini_from_mass(rights[0], w_right)
        else:
            impurity_left = _variance_from_moments(lefts[0], lefts[1], w_left)
            impurity_right = _variance_from_moments(rights[0], rights[1], w_right)
        # parent - q * left - (1 - q) * right, in place.
        q = np.divide(w_left, w_total, out=w_left)
        improvement = np.multiply(q, impurity_left, out=impurity_left)
        np.subtract(parent_impurity, improvement, out=improvement)
        np.subtract(1, q, out=q)
        np.subtract(improvement, q * impurity_right, out=improvement)
        # Strongest boundary first; a candidate whose threshold cannot
        # separate its rows is struck out and the next strongest tried.
        while True:
            k = int(improvement.argmax())
            if improvement[k] <= floor:
                return None
            r, b = divmod(int(at[k]), m)
            j = int(candidates[r])
            values = codes.distinct[j]
            thr = 0.5 * (values[ranked[r, b]] + values[ranked[r, b + 1]])
            go_left = x[index, j] <= thr
            # For adjacent floats the midpoint can round onto one of the two
            # values and sweep every row to one side; such a split is
            # unusable.
            if go_left.all() or not go_left.any():
                first = per_candidate[:r].sum()
                improvement[first : first + per_candidate[r]] = -np.inf
                continue
            return _Split(
                feature=j,
                threshold=float(thr),
                improvement=float(improvement[k]),
                left_index=index[go_left],
                right_index=index[~go_left],
            )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Leaf values: churner fraction (gini) or mean target (mse)."""
        return self._value_checked()[self.apply(x)]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Leaf node id each row lands in (the :class:`NodeTable` walk)."""
        table = NodeTable.compile([self])
        return next(table.leaves(table.check(x)))[0]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Per-feature summed (weighted) Gini/variance improvements (Eq. 7)."""
        if self._importances is None:
            raise NotFittedError("tree has not been fitted")
        return self._importances

    @property
    def node_count(self) -> int:
        return len(self._value_checked())

    @property
    def n_leaves(self) -> int:
        self._value_checked()
        assert self._feature is not None
        return int((self._feature == LEAF).sum())

    def leaf_values(self) -> np.ndarray:
        """Values of all nodes (leaves carry the predictions)."""
        return self._value_checked().copy()

    def set_leaf_values(self, values: np.ndarray) -> None:
        """Overwrite node values (used by GBDT's Newton leaf refit)."""
        current = self._value_checked()
        values = np.asarray(values, dtype=np.float64)
        if values.shape != current.shape:
            raise ModelError(
                f"expected {current.shape} values, got {values.shape}"
            )
        self._value = values

    def _value_checked(self) -> np.ndarray:
        if self._value is None:
            raise NotFittedError("tree has not been fitted")
        return self._value


class NodeTable:
    """Every tree of an ensemble in one flat node table: the fitted model.

    The one predict kernel, shared by forests, GBDT and single trees, and
    the arrays a stored forest holds.  Node ``i`` of tree ``t`` is row
    ``roots[t] + i``; children are interleaved, right then left, so a pass
    steps every cell with ``child[2 * node + (x <= threshold)]`` (NaN
    compares false and goes right, as it always has).  A leaf is a
    self-loop (feature 0, both children itself): a row that reached one
    stays put, so each pass runs on the whole ``(trees, rows)`` node
    matrix with no active-row mask, and ``depth[t]`` passes take every row
    of tree ``t`` to its leaf.

    The constructor is the only way in, for a fit (:meth:`compile`) and a
    load alike: it checks the layout, since a stored payload comes from
    outside the program, and derives ``depth``.
    """

    __slots__ = (
        "feature", "threshold", "child", "value", "roots", "depth", "n_features"
    )

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        child: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        n_features: int,
    ) -> None:
        leaf = _check_layout(feature, threshold, child, value, roots, n_features)
        self.feature = feature
        self.threshold = threshold
        self.child = child
        self.value = value
        self.roots = roots
        self.n_features = n_features
        # Depth of every node, one level of every tree per step.  The
        # layout check makes every path strictly increasing inside its own
        # tree and gives every node at most one parent, so this visits each
        # node once at most and stops.
        level = np.zeros(len(feature), dtype=np.int64)
        frontier, depth = roots[~leaf[roots]], 0
        while len(frontier):
            depth += 1
            frontier = np.concatenate([child[2 * frontier], child[2 * frontier + 1]])
            level[frontier] = depth
            frontier = frontier[~leaf[frontier]]
        self.depth = np.maximum.reduceat(level, roots)

    @classmethod
    def compile(cls, trees: Sequence[DecisionTree]) -> "NodeTable":
        """Lay fitted trees out as one table, in tree order."""
        sizes = [tree.node_count for tree in trees]
        roots = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
        offset = np.repeat(roots, sizes)
        feature = np.concatenate([tree._feature for tree in trees])
        left = np.concatenate([tree._left for tree in trees]) + offset
        right = np.concatenate([tree._right for tree in trees]) + offset
        own = np.flatnonzero(feature == LEAF)
        feature[own] = 0
        left[own] = own
        right[own] = own
        return cls(
            feature,
            np.concatenate([tree._threshold for tree in trees]),
            np.column_stack([right, left]).reshape(-1),
            np.concatenate([tree._value for tree in trees]),
            roots,
            trees[0]._n_features,
        )

    def check(self, x: np.ndarray) -> np.ndarray:
        """``x`` as the C-contiguous float64 matrix a walk reads."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ModelError(f"x must be 2-D, got {x.ndim}-D")
        if x.shape[1] != self.n_features:
            raise ModelError(
                f"x has {x.shape[1]} features, model fitted with {self.n_features}"
            )
        return np.ascontiguousarray(x)

    def leaves(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """Leaf node ids of a :meth:`check`-ed ``x``, as ``(trees, rows)``
        blocks in tree order, each walked for its deepest tree's depth."""
        flat = x.reshape(-1)
        row_base = np.arange(len(x)) * x.shape[1]
        step = max(1, _WALK_CELLS // max(1, len(x)))
        for start in range(0, len(self.roots), step):
            roots = self.roots[start : start + step]
            node = np.repeat(roots[:, None], len(x), axis=1)
            for _ in range(int(self.depth[start : start + step].max())):
                go_left = flat.take(self.feature.take(node) + row_base) <= (
                    self.threshold.take(node)
                )
                node = self.child.take(2 * node + go_left)
            yield node

    def tree_values(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """Every row's leaf value, one tree at a time in tree order."""
        for node in self.leaves(x):
            yield from self.value.take(node)


def _check_layout(
    feature: np.ndarray,
    threshold: np.ndarray,
    child: np.ndarray,
    value: np.ndarray,
    roots: np.ndarray,
    n_features: int,
) -> np.ndarray:
    """Raise ``ModelError`` unless the arrays form a table a walk can run
    on; returns the leaf mask.

    Every node is a self-loop leaf or has both children strictly after it
    inside its own tree, no node has two parents, every feature id indexes
    a column, and ``roots`` starts at 0 and increases.
    """
    for name, arr, dtype in (
        ("feature", feature, np.int64),
        ("threshold", threshold, np.float64),
        ("child", child, np.int64),
        ("value", value, np.float64),
        ("roots", roots, np.int64),
    ):
        if arr.ndim != 1 or arr.dtype != dtype:
            raise ModelError(
                f"node table {name} must be 1-D {np.dtype(dtype)}, "
                f"got {arr.ndim}-D {arr.dtype}"
            )
    n = len(feature)
    if not len(threshold) == len(value) == n or len(child) != 2 * n:
        raise ModelError(
            f"node table lengths disagree: {n} features, {len(threshold)} "
            f"thresholds, {len(value)} values, {len(child)} child slots"
        )
    if not len(roots) or roots[0] != 0 or np.any(np.diff(roots) <= 0) or roots[-1] >= n:
        raise ModelError("node table roots must start at 0 and increase inside it")
    if np.any(feature < 0) or np.any(feature >= n_features):
        raise ModelError(f"node table feature ids must lie in [0, {n_features})")
    node = np.arange(n)
    right, left = child[0::2], child[1::2]
    leaf = (right == node) & (left == node)
    end = np.repeat(np.append(roots[1:], n), np.diff(np.append(roots, n)))
    inner = (node < right) & (right < end) & (node < left) & (left < end)
    if not np.all(leaf | inner):
        raise ModelError(
            "node table child points backward or out of its tree "
            f"at node {int(np.flatnonzero(~(leaf | inner))[0])}"
        )
    if np.bincount(np.concatenate([right[inner], left[inner]]), minlength=n).max() > 1:
        raise ModelError("node table has a node with two parents")
    return leaf


def _is_pure(t: np.ndarray) -> bool:
    return bool(np.all(t == t[0]))


def _gini_from_mass(pos_mass: np.ndarray, total_mass: np.ndarray) -> np.ndarray:
    """``1 - p² - (1 - p)²`` with ``p = pos_mass / total_mass``."""
    p = np.maximum(total_mass, 1e-300)
    np.divide(pos_mass, p, out=p)
    gini = p * p
    np.subtract(1.0, gini, out=gini)
    np.subtract(1.0, p, out=p)
    np.multiply(p, p, out=p)
    return np.subtract(gini, p, out=gini)


def _variance_from_moments(
    s: np.ndarray, s2: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """``max(s2 / w - (s / w)², 0)``: weighted variance from moment sums."""
    safe = np.maximum(w, 1e-300)
    mean = s / safe
    np.multiply(mean, mean, out=mean)
    np.divide(s2, safe, out=safe)
    np.subtract(safe, mean, out=safe)
    return np.maximum(safe, 0.0, out=safe)
