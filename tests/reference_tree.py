"""The pre-rank-code CART fit, kept as the oracle for ``test_tree_kernel``.

This is the split search ``repro.ml.tree`` shipped before the batched
kernel: per node and per candidate feature, one float64 mergesort of the
node's values plus cumulative class-mass arrays.  It is slow and obviously
right, which is what an oracle should be; the library kernel must grow
array-equal trees.  :func:`fit_tree` fits one library tree on its own, the
way an ensemble grows each of its trees.  Tests only — nothing under
``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import RankCodes, check_training_set

LEAF = -1
TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "importances")


def fit_tree(tree, x, y, sample_weight=None):
    """Grow ``tree`` on all of ``(x, y)``: validate, rank-code, then
    :meth:`~repro.ml.tree.DecisionTree.grow` from every row.  Returns it."""
    x, y, sample_weight = check_training_set(
        x, y, sample_weight, binary_labels=tree.criterion == "gini"
    )
    tree.grow(x, y, sample_weight, RankCodes(x), np.arange(len(y)))
    return tree


def tree_arrays(tree) -> dict[str, np.ndarray]:
    """The fitted arrays of a library :class:`DecisionTree`."""
    return {name: getattr(tree, f"_{name}") for name in TREE_ARRAYS}


def assert_same_tree(got: dict, want: dict) -> None:
    for name in TREE_ARRAYS:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


def reference_fit(
    x,
    y,
    sample_weight=None,
    *,
    criterion="gini",
    max_depth=25,
    min_samples_leaf=1,
    max_features=None,
    seed=0,
) -> dict[str, np.ndarray]:
    """Grow one tree the old way; returns the arrays of ``tree_arrays``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if sample_weight is None:
        sample_weight = np.ones(len(y))
    else:
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
    n_features = x.shape[1]
    if max_features is None:
        n_candidates = n_features
    elif max_features == "sqrt":
        n_candidates = max(1, int(np.sqrt(n_features)))
    else:
        n_candidates = min(max_features, n_features)
    rng = np.random.default_rng(seed)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    importances = np.zeros(n_features)
    total_weight = sample_weight.sum()

    def new_node() -> int:
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), np.arange(len(y)), 0)]
    while stack:
        node_id, index, depth = stack.pop()
        w = sample_weight[index]
        t = y[index]
        value[node_id] = (
            float(np.average(t, weights=w)) if w.sum() > 0 else float(t.mean())
        )
        if (
            depth >= max_depth
            or len(index) < 2 * min_samples_leaf
            or bool(np.all(t == t[0]))
        ):
            continue
        split = _best_split(
            criterion, min_samples_leaf, x, y, sample_weight, index, n_candidates, rng
        )
        if split is None:
            continue
        j, thr, improvement, left_index, right_index = split
        importances[j] += improvement * (w.sum() / total_weight)
        feature[node_id] = j
        threshold[node_id] = thr
        left[node_id] = new_node()
        right[node_id] = new_node()
        stack.append((left[node_id], left_index, depth + 1))
        stack.append((right[node_id], right_index, depth + 1))

    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "value": np.asarray(value, dtype=np.float64),
        "importances": importances,
    }


def _best_split(
    criterion, min_leaf, x, y, sample_weight, index, n_candidates, rng
):
    n_features = x.shape[1]
    if n_candidates < n_features:
        candidates = rng.choice(n_features, size=n_candidates, replace=False)
    else:
        candidates = np.arange(n_features)
    w = sample_weight[index]
    t = y[index]
    best = None
    parent_impurity = _impurity(criterion, t, w)
    w_total = w.sum()
    if w_total <= 0:
        return None
    for j in candidates:
        values = x[index, j]
        order = np.argsort(values, kind="mergesort")
        v_sorted = values[order]
        # Candidate boundaries: between distinct values with both sides
        # holding at least min_samples_leaf instances.
        boundaries = np.flatnonzero(v_sorted[:-1] != v_sorted[1:])
        boundaries = boundaries[
            (boundaries + 1 >= min_leaf) & (len(index) - boundaries - 1 >= min_leaf)
        ]
        if len(boundaries) == 0:
            continue
        w_sorted = w[order]
        t_sorted = t[order]
        cum_w = np.cumsum(w_sorted)
        w_left = cum_w[boundaries]
        w_right = w_total - w_left
        q = w_left / w_total
        if criterion == "gini":
            cum_pos = np.cumsum(w_sorted * t_sorted)
            pos_left = cum_pos[boundaries]
            pos_right = cum_pos[-1] - pos_left
            gini_left = _gini_from_mass(pos_left, w_left)
            gini_right = _gini_from_mass(pos_right, w_right)
            improvement = parent_impurity - q * gini_left - (1 - q) * gini_right
        else:
            cum_s = np.cumsum(w_sorted * t_sorted)
            cum_s2 = np.cumsum(w_sorted * t_sorted * t_sorted)
            s_left = cum_s[boundaries]
            s_right = cum_s[-1] - s_left
            s2_left = cum_s2[boundaries]
            s2_right = cum_s2[-1] - s2_left
            var_left = _variance_from_moments(s_left, s2_left, w_left)
            var_right = _variance_from_moments(s_right, s2_right, w_right)
            improvement = parent_impurity - q * var_left - (1 - q) * var_right
        k = int(np.argmax(improvement))
        if improvement[k] <= 1e-12:
            continue
        if best is None or improvement[k] > best[2]:
            b = boundaries[k]
            thr = 0.5 * (float(v_sorted[b]) + float(v_sorted[b + 1]))
            go_left = values <= thr
            # For adjacent floats the midpoint can round onto one of the
            # two values (or be NaN, between -inf and inf) and sweep every
            # row to one side; such a split is unusable.
            if go_left.all() or not go_left.any():
                continue
            best = (
                int(j),
                float(thr),
                float(improvement[k]),
                index[go_left],
                index[~go_left],
            )
    return best


def _impurity(criterion, t, w) -> float:
    w_total = w.sum()
    if w_total <= 0:
        return 0.0
    if criterion == "gini":
        p = float((w * t).sum() / w_total)
        return 1.0 - p * p - (1 - p) * (1 - p)
    mean = float((w * t).sum() / w_total)
    return float((w * (t - mean) ** 2).sum() / w_total)


def _gini_from_mass(pos_mass, total_mass):
    safe = np.maximum(total_mass, 1e-300)
    p = pos_mass / safe
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _variance_from_moments(s, s2, w):
    safe = np.maximum(w, 1e-300)
    mean = s / safe
    return np.maximum(s2 / safe - mean * mean, 0.0)
