"""The per-tree predict loop, kept as the oracle for ``test_predict_kernel``.

This is how ``repro.ml`` predicted before the flat node table: every tree
walks its own arrays with masked fancy-index passes (a row that reached a
leaf drops out of the next pass), and an ensemble adds the per-tree
outputs in tree order.  Tests only — nothing under ``src/`` imports it.

A fitted ensemble keeps only its node table, so the trees the oracle walks
are taken from the fit itself: :func:`fit_grown` spies on the compile step
and hands back exactly the trees that went into the table.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.ml.tree import NodeTable

LEAF = -1


def fit_grown(model, *args, **kwargs):
    """Fit ``model``; return it and the trees its fit compiled, in order.

    The ensemble compile is the fit's last call to
    :meth:`NodeTable.compile` (GBDT also compiles each stage's tree alone
    to refit its leaves).
    """
    with mock.patch.object(NodeTable, "compile", wraps=NodeTable.compile) as spy:
        model.fit(*args, **kwargs)
    return model, list(spy.call_args.args[0])


def reference_apply(tree, x) -> np.ndarray:
    """Leaf node id each row of ``x`` lands in, one tree on its own."""
    x = np.asarray(x, dtype=np.float64)
    node = np.zeros(len(x), dtype=np.int64)
    rows = np.arange(len(x))
    for _ in range(tree.max_depth + 1):
        active = tree._feature[node] != LEAF
        if not active.any():
            break
        act_rows = rows[active]
        act_nodes = node[active]
        go_left = x[act_rows, tree._feature[act_nodes]] <= tree._threshold[act_nodes]
        node[act_rows] = np.where(go_left, tree._left[act_nodes], tree._right[act_nodes])
    return node


def reference_predict(tree, x) -> np.ndarray:
    return tree._value[reference_apply(tree, x)]


def reference_forest_proba(trees, x) -> np.ndarray:
    """Eq. 4 the old way: ``out += row`` per tree, in tree order."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(len(x))
    for tree in trees:
        out += reference_predict(tree, x)
    return out / len(trees)


def reference_decision_function(gbdt, trees, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    raw = np.full(len(x), gbdt._base_score)
    for tree in trees:
        raw += gbdt.learning_rate * reference_predict(tree, x)
    return raw


def reference_staged_train_loss(gbdt, trees, x, y) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    raw = np.full(len(x), gbdt._base_score)
    losses = []
    for tree in trees:
        raw = raw + gbdt.learning_rate * reference_predict(tree, x)
        p = np.clip(1.0 / (1.0 + np.exp(-np.clip(raw, -35, 35))), 1e-12, 1 - 1e-12)
        losses.append(float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))))
    return np.asarray(losses)
