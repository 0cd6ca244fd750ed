"""The batched rank-code split kernel grows the oracle's trees, bit for bit.

``reference_tree.reference_fit`` is the per-feature float-sort search the
library shipped before; every case here demands ``np.array_equal`` on
feature / threshold / left / right / value / importances.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from reference_predict import fit_grown
from reference_tree import assert_same_tree, fit_tree, reference_fit, tree_arrays
from repro.errors import ModelError
from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import GradientBoostedTrees
from repro.ml.tree import DecisionTree, RankCodes, _stable_order


def _columns(rng, n):
    """Columns that stress ties, constants, adjacent floats and ±inf."""
    adjacent = np.where(rng.random(n) < 0.5, 1.0, np.nextafter(1.0, 2.0))
    infinite = rng.normal(size=n)
    infinite[rng.random(n) < 0.15] = np.inf
    infinite[rng.random(n) < 0.15] = -np.inf
    signed_zero = np.where(rng.random(n) < 0.5, 0.0, -0.0) + (rng.random(n) < 0.3)
    return np.column_stack(
        [
            rng.integers(0, 3, size=n),  # ties-heavy
            np.full(n, 7.0),  # constant
            adjacent,
            infinite,
            signed_zero,
            rng.normal(size=n),
            np.round(rng.normal(size=n), 1),
        ]
    ).astype(np.float64)


def _targets(rng, n, criterion):
    if criterion == "gini":
        return (rng.random(n) < 0.35).astype(np.float64)
    return rng.normal(size=n)


def _fit_both(x, y, w, **params):
    got = tree_arrays(fit_tree(DecisionTree(**params), x, y, sample_weight=w))
    want = reference_fit(x, y, w, **params)
    assert_same_tree(got, want)
    return got


@pytest.mark.parametrize("criterion", ["gini", "mse"])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("max_features", [None, "sqrt", 3])
def test_matches_reference_on_hard_columns(criterion, weighted, max_features):
    rng = np.random.default_rng(11)
    n = 400
    x = _columns(rng, n)
    y = _targets(rng, n, criterion)
    # Zero weights included: a node may hold rows that carry no mass.
    w = rng.random(n) * (rng.random(n) > 0.1) if weighted else None
    grown = _fit_both(
        x, y, w,
        criterion=criterion, max_depth=8, min_samples_leaf=3,
        max_features=max_features, seed=5,
    )
    assert len(grown["feature"]) > 5  # the case is not a stump


@pytest.mark.parametrize("criterion", ["gini", "mse"])
def test_min_samples_leaf_edge(criterion):
    """Nodes of exactly ``2 * leaf`` rows have a single legal boundary."""
    rng = np.random.default_rng(3)
    for leaf in (1, 2, 5, 20):
        for n in (2 * leaf, 2 * leaf + 1, 4 * leaf):
            x = _columns(rng, n)
            y = _targets(rng, n, criterion)
            y[:2] = (0.0, 1.0)
            _fit_both(
                x, y, None, criterion=criterion, max_depth=6, min_samples_leaf=leaf
            )


def test_adjacent_float_guard_falls_through_to_next_candidate():
    """The strongest candidate's midpoint rounds onto its upper value; the
    kernel must strike it out and take the next one, like the oracle."""
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)
    assert 0.5 * (lo + hi) == hi  # every row would go left
    y = np.array([0.0] * 10 + [1.0] * 10)
    perfect_but_unsplittable = np.where(y == 0, lo, hi)
    weaker = np.r_[np.zeros(9), np.ones(11)]
    x = np.column_stack([perfect_but_unsplittable, weaker])
    grown = _fit_both(x, y, None, max_depth=1)
    assert grown["feature"][0] == 1


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_only_infinite_gap_is_unsplittable():
    x = np.array([[-np.inf], [-np.inf], [np.inf], [np.inf]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    grown = _fit_both(x, y, None)  # midpoint of -inf and +inf is NaN
    assert len(grown["feature"]) == 1


def test_zero_features_is_a_stump():
    grown = _fit_both(np.zeros((6, 0)), np.array([0.0, 1.0] * 3), None)
    assert grown["value"].tolist() == [0.5]


@pytest.mark.parametrize("criterion", ["gini", "mse"])
def test_wide_column_takes_the_multi_digit_path(criterion):
    """> 65 536 distinct values: codes need a second 16-bit radix digit."""
    rng = np.random.default_rng(8)
    n = 70_000
    x = np.column_stack([rng.permutation(n).astype(np.float64), rng.integers(0, 4, n)])
    y = _targets(rng, n, criterion)
    codes = RankCodes(x)
    assert codes.ranks.dtype == np.uint32 and len(codes.distinct[0]) == n
    _fit_both(x, y, None, criterion=criterion, max_depth=4, min_samples_leaf=50)


def test_stable_order_is_the_stable_sort_of_values():
    rng = np.random.default_rng(2)
    for high in (5, 70_000, 1 << 20):
        block = rng.integers(0, high, size=(3, 4000)).astype(np.uint32)
        want = np.argsort(block.astype(np.float64), axis=1, kind="mergesort")
        assert np.array_equal(_stable_order(block), want)
    narrow = rng.integers(0, 9, size=(2, 500)).astype(np.uint16)
    assert np.array_equal(
        _stable_order(narrow), np.argsort(narrow, axis=1, kind="mergesort")
    )


@pytest.mark.parametrize("cells", [1, 64, 1 << 30])
def test_block_size_never_changes_the_tree(monkeypatch, cells):
    """One candidate per block, a few, or all at once: same tree."""
    monkeypatch.setattr(tree_module, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(21)
    x = _columns(rng, 300)
    for criterion in ("gini", "mse"):
        y = _targets(rng, 300, criterion)
        _fit_both(x, y, rng.random(300), criterion=criterion, max_depth=6,
                  min_samples_leaf=2, max_features=None)


def test_bootstrap_rows_equal_the_materialized_copy():
    """A root row index with duplicates, in draw order, grows the tree the
    old forest grew from its ``x[boot]`` copy."""
    rng = np.random.default_rng(4)
    n = 500
    x = _columns(rng, n)
    y = _targets(rng, n, "gini")
    w = rng.random(n)
    boot = rng.integers(0, n, size=n)
    assert len(np.unique(boot)) < n
    params = dict(max_depth=7, min_samples_leaf=4, max_features="sqrt", seed=9)
    tree = DecisionTree(**params)
    tree.grow(x, y, w, RankCodes(x), boot)
    assert_same_tree(
        tree_arrays(tree), reference_fit(x[boot], y[boot], w[boot], **params)
    )


def test_forest_trees_equal_reference_bootstrap_fits():
    rng = np.random.default_rng(6)
    n = 300
    x = _columns(rng, n)
    y = _targets(rng, n, "gini")
    w = rng.random(n) + 0.1
    _, trees = fit_grown(
        RandomForestClassifier(n_trees=5, min_samples_leaf=3, max_depth=6, seed=2),
        x, y, sample_weight=w,
    )
    draw = np.random.default_rng(2)
    for tree in trees:
        boot = draw.integers(0, n, size=n)
        seed = int(draw.integers(0, 2**31 - 1))
        want = reference_fit(
            x[boot], y[boot], w[boot],
            max_depth=6, min_samples_leaf=3, max_features="sqrt", seed=seed,
        )
        assert_same_tree(tree_arrays(tree), want)


matrices = st.integers(4, 60).flatmap(
    lambda n: st.tuples(
        hnp.arrays(
            np.float64,
            st.tuples(st.just(n), st.integers(1, 4)),
            # Few distinct values: ties and equal improvements are common.
            elements=st.one_of(
                st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, 2.5, np.inf]),
                st.floats(-3, 3, allow_nan=False, width=16),
            ),
        ),
        hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])),
        hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    )
)


@given(
    matrices,
    st.sampled_from(["gini", "mse"]),
    st.integers(1, 4),
    st.sampled_from([None, "sqrt", 2]),
    st.integers(0, 50),
)
@settings(max_examples=150, deadline=None)
@example(  # the only boundary of a column is -inf | inf: its midpoint is NaN
    (np.array([[-np.inf], [np.inf], [np.inf], [np.inf]]),
     np.array([0.0, 1.0, 1.0, 1.0]), np.full(4, 0.5)),
    "gini", 1, None, 0,
)
def test_property_small_matrices(data, criterion, leaf, max_features, seed):
    x, y, w = data
    _fit_both(
        x, y, w, criterion=criterion, max_depth=5, min_samples_leaf=leaf,
        max_features=max_features, seed=seed,
    )


class TestNaNIsLoud:
    """A NaN used to drop its feature silently at each node; now it raises."""

    def _data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 4))
        y = (rng.random(40) < 0.5).astype(np.float64)
        y[:2] = (0.0, 1.0)
        x[17, 2] = np.nan
        x[3, 3] = np.nan
        return x, y

    @pytest.mark.parametrize(
        "model",
        [
            DecisionTree(),
            DecisionTree(criterion="mse"),
            RandomForestClassifier(n_trees=2),
            GradientBoostedTrees(n_trees=2),
        ],
        ids=["tree-gini", "tree-mse", "forest", "gbdt"],
    )
    def test_fit_names_the_first_nan_column(self, model):
        x, y = self._data()
        with pytest.raises(ModelError, match="NaN in feature column 2"):
            if isinstance(model, DecisionTree):
                fit_tree(model, x, y)
            else:
                model.fit(x, y)

    def test_infinities_stay_legal(self):
        x, y = self._data()
        x = np.nan_to_num(x, nan=np.inf)
        x[5, 0] = -np.inf
        _fit_both(x, y, None, min_samples_leaf=2)
        RandomForestClassifier(n_trees=2).fit(x, y)
        GradientBoostedTrees(n_trees=2).fit(x, y)
