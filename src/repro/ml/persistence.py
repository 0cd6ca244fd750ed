"""Model persistence for the monthly retrain cycle.

The deployed system retrains every month and serves the previous model
until the new one is validated; that requires storing models.  Random
forests serialize to npz bytes (the same codec family the platform's tables
use), so a fitted model can live in the block store next to the feature
tables that produced it.
"""

from __future__ import annotations

import io

import numpy as np

from ..errors import ModelError, NotFittedError
from .forest import RandomForestClassifier
from .tree import DecisionTree, NodeTable

#: Format marker stored with every serialized model.
_MAGIC = "repro-rf-v1"


def tree_to_arrays(tree: DecisionTree) -> dict[str, np.ndarray]:
    """Flat-array snapshot of a fitted tree."""
    if tree._value is None:
        raise NotFittedError("cannot serialize an unfitted tree")
    assert tree._feature is not None and tree._threshold is not None
    assert tree._left is not None and tree._right is not None
    assert tree._importances is not None
    return {
        "feature": tree._feature,
        "threshold": tree._threshold,
        "left": tree._left,
        "right": tree._right,
        "value": tree._value,
        "importances": tree._importances,
        "meta": np.asarray(
            [tree.max_depth, tree.min_samples_leaf, tree._n_features],
            dtype=np.int64,
        ),
    }


def tree_from_arrays(arrays: dict[str, np.ndarray]) -> DecisionTree:
    """Rebuild a predict-ready tree from :func:`tree_to_arrays` output."""
    max_depth, min_samples_leaf, n_features = (
        int(v) for v in arrays["meta"]
    )
    tree = DecisionTree(
        criterion="gini",
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )
    tree._feature = np.asarray(arrays["feature"], dtype=np.int64)
    tree._threshold = np.asarray(arrays["threshold"], dtype=np.float64)
    tree._left = np.asarray(arrays["left"], dtype=np.int64)
    tree._right = np.asarray(arrays["right"], dtype=np.int64)
    tree._value = np.asarray(arrays["value"], dtype=np.float64)
    tree._importances = np.asarray(arrays["importances"], dtype=np.float64)
    tree._n_features = n_features
    return tree


def forest_to_bytes(forest: RandomForestClassifier) -> bytes:
    """Serialize a fitted forest to npz bytes."""
    trees = forest._trees
    if trees is None:
        raise NotFittedError("cannot serialize an unfitted forest")
    arrays: dict[str, np.ndarray] = {
        "__magic__": np.asarray([_MAGIC], dtype=str),
        "__config__": np.asarray(
            [
                forest.n_trees,
                forest.min_samples_leaf,
                forest.max_depth,
                forest.seed,
                forest._n_features,
            ],
            dtype=np.int64,
        ),
    }
    for i, tree in enumerate(trees):
        for name, arr in tree_to_arrays(tree).items():
            arrays[f"t{i}_{name}"] = arr
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def forest_from_bytes(payload: bytes) -> RandomForestClassifier:
    """Inverse of :func:`forest_to_bytes` — a predict-ready forest."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        magic = str(npz["__magic__"][0])
        if magic != _MAGIC:
            raise ModelError(f"not a serialized forest (marker {magic!r})")
        n_trees, min_leaf, max_depth, seed, n_features = (
            int(v) for v in npz["__config__"]
        )
        forest = RandomForestClassifier(
            n_trees=n_trees,
            min_samples_leaf=min_leaf,
            max_depth=max_depth,
            seed=seed,
        )
        trees = []
        for i in range(n_trees):
            arrays = {
                name: npz[f"t{i}_{name}"]
                for name in (
                    "feature", "threshold", "left", "right", "value",
                    "importances", "meta",
                )
            }
            trees.append(tree_from_arrays(arrays))
        forest._trees = trees
        forest._table = NodeTable(trees)  # the compile step fit ends with
        forest._n_features = n_features
    return forest


def save_forest(
    forest: RandomForestClassifier,
    catalog,
    name: str,
    database: str = "default",
) -> None:
    """Store a fitted forest in the platform's block store.

    The model lands at ``/models/<database>/<name>.npz`` on the same
    replicated storage as the feature tables.
    """
    catalog.store.write(
        f"/models/{database}/{name}.npz", forest_to_bytes(forest)
    )


def load_forest(
    catalog, name: str, database: str = "default"
) -> RandomForestClassifier:
    """Inverse of :func:`save_forest`."""
    return forest_from_bytes(
        catalog.store.read(f"/models/{database}/{name}.npz")
    )
