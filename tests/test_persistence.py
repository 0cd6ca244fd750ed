"""Tests for model persistence (ml.persistence)."""

import hashlib
import io

import numpy as np
import pytest

from reference_predict import reference_forest_proba
from repro.dataplat.catalog import Catalog
from repro.errors import ModelError, NotFittedError
from repro.ml.forest import RandomForestClassifier
from repro.ml.persistence import (
    forest_from_bytes,
    forest_to_bytes,
    load_forest,
    save_forest,
    tree_from_arrays,
    tree_to_arrays,
)
from repro.ml.tree import DecisionTree, NodeTable
from repro.serve.registry import ModelRegistry


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(600, 7))
    y = (rng.random(600) < 1 / (1 + np.exp(-2 * x[:, 0] + x[:, 1]))).astype(int)
    forest = RandomForestClassifier(n_trees=6, min_samples_leaf=5, seed=3)
    forest.fit(x, y)
    return forest, x


class TestTreeRoundTrip:
    def test_predictions_identical(self, fitted):
        forest, x = fitted
        tree = forest._trees[0]
        rebuilt = tree_from_arrays(tree_to_arrays(tree))
        assert np.array_equal(tree.predict(x), rebuilt.predict(x))
        assert np.array_equal(tree.apply(x), rebuilt.apply(x))

    def test_importances_preserved(self, fitted):
        forest, _ = fitted
        tree = forest._trees[0]
        rebuilt = tree_from_arrays(tree_to_arrays(tree))
        assert np.array_equal(
            tree.feature_importances_, rebuilt.feature_importances_
        )

    def test_unfitted_rejected(self):
        with pytest.raises(NotFittedError):
            tree_to_arrays(DecisionTree())


class TestForestRoundTrip:
    def test_scores_identical(self, fitted):
        forest, x = fitted
        rebuilt = forest_from_bytes(forest_to_bytes(forest))
        assert np.array_equal(forest.predict_proba(x), rebuilt.predict_proba(x))

    def test_config_preserved(self, fitted):
        forest, _ = fitted
        rebuilt = forest_from_bytes(forest_to_bytes(forest))
        assert rebuilt.n_trees == forest.n_trees
        assert rebuilt.min_samples_leaf == forest.min_samples_leaf
        assert rebuilt.seed == forest.seed

    def test_importances_identical(self, fitted):
        forest, _ = fitted
        rebuilt = forest_from_bytes(forest_to_bytes(forest))
        assert np.allclose(
            forest.feature_importances_, rebuilt.feature_importances_
        )

    def test_feature_width_enforced_after_load(self, fitted):
        forest, _ = fitted
        rebuilt = forest_from_bytes(forest_to_bytes(forest))
        with pytest.raises(ModelError):
            rebuilt.predict_proba(np.zeros((2, 99)))

    def test_unfitted_rejected(self):
        with pytest.raises(NotFittedError):
            forest_to_bytes(RandomForestClassifier())

    def test_garbage_rejected(self):
        import io

        buf = io.BytesIO()
        np.savez(buf, __magic__=np.asarray(["nope"], dtype=str))
        with pytest.raises(ModelError):
            forest_from_bytes(buf.getvalue())


class TestCatalogStorage:
    def test_save_load_through_block_store(self, fitted):
        forest, x = fitted
        catalog = Catalog()
        save_forest(forest, catalog, "churn_2014_06", database="default")
        assert catalog.store.exists("/models/default/churn_2014_06.npz")
        rebuilt = load_forest(catalog, "churn_2014_06")
        assert np.array_equal(forest.predict_proba(x), rebuilt.predict_proba(x))

    def test_model_survives_datanode_failure(self, fitted):
        forest, x = fitted
        catalog = Catalog()
        save_forest(forest, catalog, "m")
        catalog.store.kill_node(0)
        rebuilt = load_forest(catalog, "m")
        assert np.array_equal(forest.predict_proba(x), rebuilt.predict_proba(x))


def _payload_digest(payload: bytes) -> str:
    """Digest of every stored array's name, dtype, shape and bytes."""
    h = hashlib.sha256()
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        for name in npz.files:
            arr = npz[name]
            h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()[:16]


class TestOnePredictPath:
    def test_stored_model_serves_the_in_memory_scores(self, fitted):
        """A loaded forest is compiled like a fitted one, so it never
        predicts per tree and scores the same bytes."""
        forest, x = fitted
        catalog = Catalog()
        ModelRegistry().publish_durable(catalog, "v1", forest)
        registry = ModelRegistry()
        assert registry.activate_from_store(catalog, "v1") is True
        _, loaded = registry.current()
        assert loaded is not forest
        for name in NodeTable.__slots__:
            assert np.array_equal(
                getattr(loaded._table, name), getattr(forest._table, name)
            ), name
        probe = np.vstack([x[:50], np.full((1, 7), np.nan), np.full((1, 7), -np.inf)])
        scores = loaded.predict_proba(probe)
        assert scores.tobytes() == forest.predict_proba(probe).tobytes()
        assert scores.tobytes() == reference_forest_proba(forest, probe).tobytes()

    def test_payload_content_is_unchanged(self, fitted):
        """The node table is derived, never stored: a fixed-seed forest
        serializes to the same ``repro-rf-v1`` arrays as before it existed."""
        forest, _ = fitted
        assert _payload_digest(forest_to_bytes(forest)) == "8cf28db7d775a849"
