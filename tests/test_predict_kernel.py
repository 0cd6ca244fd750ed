"""The node-table predict kernel scores exactly as the per-tree loop did.

``reference_predict`` is the masked per-tree walk the library shipped
before :class:`~repro.ml.tree.NodeTable`; every case here demands the same
bytes, for random forests, GBDT scores and GBDT staged losses, on inputs
holding NaN and ±inf, on 0- and 1-row batches, and on trees from a single
leaf up to the depth cap.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from reference_predict import (
    fit_grown,
    reference_apply,
    reference_decision_function,
    reference_forest_proba,
)
from reference_tree import fit_tree
from repro.errors import ModelError
from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import GradientBoostedTrees
from repro.ml.tree import LEAF, DecisionTree

# A fit whose only gap is -inf..inf computes a NaN midpoint and warns (see
# test_tree_kernel.test_only_infinite_gap_is_unsplittable).
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

FIT_VALUES = [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.5, np.inf]
PREDICT_VALUES = FIT_VALUES + [np.nan, 1e300, -1e300]


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def tree_depth(tree) -> int:
    """Depth of the deepest leaf, by recursion over the tree's own arrays."""
    def depth(node):
        if tree._feature[node] == LEAF:
            return 0
        return 1 + max(depth(tree._left[node]), depth(tree._right[node]))
    return depth(0)


def fit_set(n_features):
    return st.integers(2, 60).flatmap(
        lambda n: st.tuples(
            hnp.arrays(
                np.float64,
                (n, n_features),
                elements=st.one_of(
                    st.sampled_from(FIT_VALUES),
                    st.floats(-3, 3, allow_nan=False, width=16),
                ),
            ),
            hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])),
        )
    )


def predict_set(n_features):
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 20), st.just(n_features)),
        elements=st.one_of(
            st.sampled_from(PREDICT_VALUES), st.floats(-3, 3, width=16)
        ),
    )


@st.composite
def problems(draw):
    n_features = draw(st.integers(1, 4))
    x, y = draw(fit_set(n_features))
    return x, y, draw(predict_set(n_features))


@given(
    problems(),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(0, 50),
)
@settings(max_examples=100, deadline=None)
def test_forest_proba_matches_reference(problem, n_trees, max_depth, leaf, seed):
    x, y, probe = problem
    forest, trees = fit_grown(
        RandomForestClassifier(
            n_trees=n_trees, max_depth=max_depth, min_samples_leaf=leaf, seed=seed
        ),
        x, y,
    )
    for rows in (probe, x):
        assert_same_bits(forest.predict_proba(rows), reference_forest_proba(trees, rows))


@given(problems(), st.integers(1, 5), st.integers(1, 4), st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_gbdt_scores_match_reference(problem, n_trees, max_depth, seed):
    x, y, probe = problem
    gbdt, trees = fit_grown(
        GradientBoostedTrees(
            n_trees=n_trees, max_depth=max_depth, min_samples_leaf=1, seed=seed
        ),
        x, y,
    )
    for rows in (probe, x):
        assert_same_bits(
            gbdt.decision_function(rows), reference_decision_function(gbdt, trees, rows)
        )


@given(problems(), st.integers(1, 6), st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_single_tree_apply_matches_reference(problem, max_depth, seed):
    x, y, probe = problem
    for criterion in ("gini", "mse"):
        tree = DecisionTree(criterion=criterion, max_depth=max_depth, seed=seed)
        fit_tree(tree, x, y)
        assert_same_bits(tree.apply(probe), reference_apply(tree, probe))


def _separable(n=200, d=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (np.sin(3 * x[:, 0]) + x[:, 1] * x[:, 2] > 0).astype(np.float64)
    return x, y


def _hostile_probe(rng, n, d):
    probe = rng.normal(size=(n, d)) * 2
    probe[rng.random((n, d)) < 0.2] = np.nan
    probe[rng.random((n, d)) < 0.1] = np.inf
    probe[rng.random((n, d)) < 0.1] = -np.inf
    return probe


def test_constant_labels_give_single_leaf_trees():
    x, _ = _separable()
    for y in (np.zeros(len(x)), np.ones(len(x))):
        forest, trees = fit_grown(RandomForestClassifier(n_trees=4, seed=1), x, y)
        assert all(tree.node_count == 1 for tree in trees)
        assert forest._table.depth.tolist() == [0, 0, 0, 0]
        probe = _hostile_probe(np.random.default_rng(2), 9, x.shape[1])
        assert_same_bits(forest.predict_proba(probe), reference_forest_proba(trees, probe))
        assert forest.predict_proba(probe).tolist() == [y[0]] * 9


@pytest.mark.parametrize("max_depth", [1, 3, 6])
def test_trees_reaching_the_depth_cap(max_depth):
    x, y = _separable()
    forest, trees = fit_grown(
        RandomForestClassifier(n_trees=5, max_depth=max_depth, min_samples_leaf=1, seed=4),
        x, y,
    )
    depths = [tree_depth(tree) for tree in trees]
    assert max(depths) == max_depth
    assert forest._table.depth.tolist() == depths  # walked exactly that deep
    probe = _hostile_probe(np.random.default_rng(3), 50, x.shape[1])
    assert_same_bits(forest.predict_proba(probe), reference_forest_proba(trees, probe))


@pytest.mark.parametrize("rows", [0, 1])
def test_empty_and_single_row_batches(rows):
    x, y = _separable()
    forest, trees = fit_grown(RandomForestClassifier(n_trees=3, max_depth=5, seed=0), x, y)
    gbdt, stages = fit_grown(GradientBoostedTrees(n_trees=3, seed=0), x, y)
    probe = _hostile_probe(np.random.default_rng(rows), rows, x.shape[1])
    assert forest.predict_proba(probe).shape == (rows,)
    assert_same_bits(forest.predict_proba(probe), reference_forest_proba(trees, probe))
    assert_same_bits(
        gbdt.decision_function(probe), reference_decision_function(gbdt, stages, probe)
    )


@pytest.mark.parametrize("cells", [1, 64, 1 << 30])
def test_walk_block_size_never_changes_the_scores(monkeypatch, cells):
    """One tree per walk block, a few, or all at once: same bytes."""
    monkeypatch.setattr(tree_module, "_WALK_CELLS", cells)
    x, y = _separable(n=300)
    forest, trees = fit_grown(RandomForestClassifier(n_trees=7, max_depth=6, seed=5), x, y)
    gbdt, stages = fit_grown(GradientBoostedTrees(n_trees=6, seed=5), x, y)
    probe = _hostile_probe(np.random.default_rng(6), 40, x.shape[1])
    assert_same_bits(forest.predict_proba(probe), reference_forest_proba(trees, probe))
    assert_same_bits(
        gbdt.decision_function(probe), reference_decision_function(gbdt, stages, probe)
    )


def test_non_contiguous_input_reads_the_right_cells():
    x, y = _separable()
    forest, trees = fit_grown(RandomForestClassifier(n_trees=3, max_depth=5, seed=0), x, y)
    wide = np.asfortranarray(np.column_stack([x, x]))
    probe = wide[::3, ::2]  # strided view: neither C- nor F-contiguous
    assert not probe.flags.c_contiguous
    assert_same_bits(forest.predict_proba(probe), reference_forest_proba(trees, probe))


class TestInputChecks:
    @pytest.fixture(scope="class")
    def models(self):
        x, y = _separable()
        return (
            RandomForestClassifier(n_trees=2, seed=0).fit(x, y),
            GradientBoostedTrees(n_trees=2).fit(x, y),
            fit_tree(DecisionTree(), x, y),
        )

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 5)), np.zeros((2, 3, 1))])
    def test_wrong_shape_raises_model_error(self, models, bad):
        forest, gbdt, tree = models
        for predict in (
            forest.predict_proba,
            gbdt.decision_function,
            tree.predict,
        ):
            with pytest.raises(ModelError):
                predict(bad)
