"""Tests for model persistence (ml.persistence)."""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_predict import fit_grown, reference_forest_proba
from test_predict_kernel import problems
from repro.dataplat.catalog import Catalog
from repro.errors import ModelError, NotFittedError
from repro.ml.forest import RandomForestClassifier
from repro.ml.persistence import forest_from_bytes, forest_to_bytes
from repro.ml.tree import NodeTable
from repro.serve.registry import ModelRegistry, model_path


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(600, 7))
    y = (rng.random(600) < 1 / (1 + np.exp(-2 * x[:, 0] + x[:, 1]))).astype(int)
    forest, trees = fit_grown(
        RandomForestClassifier(n_trees=6, min_samples_leaf=5, seed=3), x, y
    )
    return forest, x, trees


class TestForestRoundTrip:
    def test_scores_identical(self, fitted):
        forest, x, _ = fitted
        rebuilt = forest_from_bytes(forest_to_bytes(forest))
        assert np.array_equal(forest.predict_proba(x), rebuilt.predict_proba(x))

    def test_config_preserved(self, fitted):
        forest, _, _ = fitted
        rebuilt = forest_from_bytes(forest_to_bytes(forest))
        assert rebuilt.n_trees == forest.n_trees
        assert rebuilt.min_samples_leaf == forest.min_samples_leaf
        assert rebuilt.seed == forest.seed

    def test_importances_identical(self, fitted):
        forest, _, _ = fitted
        rebuilt = forest_from_bytes(forest_to_bytes(forest))
        assert np.allclose(
            forest.feature_importances_, rebuilt.feature_importances_
        )

    def test_feature_width_enforced_after_load(self, fitted):
        forest, _, _ = fitted
        rebuilt = forest_from_bytes(forest_to_bytes(forest))
        with pytest.raises(ModelError):
            rebuilt.predict_proba(np.zeros((2, 99)))

    def test_unfitted_rejected(self):
        with pytest.raises(NotFittedError):
            forest_to_bytes(RandomForestClassifier())

    def test_garbage_rejected(self):
        buf = io.BytesIO()
        np.savez(buf, __magic__=np.asarray(["nope"], dtype=str))
        with pytest.raises(ModelError):
            forest_from_bytes(buf.getvalue())


class TestCatalogStorage:
    def test_save_load_through_block_store(self, fitted):
        forest, x, _ = fitted
        catalog = Catalog()
        ModelRegistry().publish_durable(catalog, "churn_2014_06", forest)
        assert catalog.store.exists("/models/serve/churn_2014_06.npz")
        registry = ModelRegistry()
        assert registry.activate_from_store(catalog, "churn_2014_06") is True
        rebuilt = registry.current()[1]
        assert np.array_equal(forest.predict_proba(x), rebuilt.predict_proba(x))

    def test_model_survives_datanode_failure(self, fitted):
        forest, x, _ = fitted
        catalog = Catalog()
        ModelRegistry().publish_durable(catalog, "m", forest)
        catalog.store.kill_node(0)
        registry = ModelRegistry()
        assert registry.activate_from_store(catalog, "m") is True
        rebuilt = registry.current()[1]
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
        forest, x, trees = fitted
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
        assert scores.tobytes() == reference_forest_proba(trees, probe).tobytes()

    def test_payload_content_is_unchanged(self, fitted):
        """A fixed-seed forest serializes to the same ``repro-rf-v2`` arrays:
        its node table, summed importances and config."""
        forest, _, _ = fitted
        assert _payload_digest(forest_to_bytes(forest)) == "50d75e5dd49543fc"


def _members(payload: bytes) -> dict[str, np.ndarray]:
    with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def _npz(arrays: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _backward_child(arrays):
    child = arrays["child"]
    last = np.flatnonzero(child[0::2] != np.arange(len(arrays["feature"])))[-1]
    tree = np.searchsorted(arrays["roots"], last, side="right") - 1
    arrays["child"][2 * last + 1] = arrays["roots"][tree]


def _cross_tree_child(arrays):
    arrays["child"][1] = arrays["roots"][1] + 1  # root of tree 0 -> tree 1


def _two_parents(arrays):
    arrays["child"][0] = arrays["child"][1]  # root's right := its left


def _feature_out_of_range(arrays):
    arrays["feature"][0] = arrays["__config__"][4]


def _negative_feature(arrays):
    arrays["feature"][0] = -1


def _short_values(arrays):
    arrays["value"] = arrays["value"][:-1]


def _roots_not_at_zero(arrays):
    arrays["roots"] = arrays["roots"] + 1


def _tree_count_disagrees(arrays):
    arrays["__config__"][0] += 1


def _float_children(arrays):
    arrays["child"] = arrays["child"].astype(np.float64)


def _missing_roots(arrays):
    del arrays["roots"]


def _v1_marker(arrays):
    arrays["__magic__"] = np.asarray(["repro-rf-v1"], dtype=str)


MUTATIONS = [
    _backward_child,
    _cross_tree_child,
    _two_parents,
    _feature_out_of_range,
    _negative_feature,
    _short_values,
    _roots_not_at_zero,
    _tree_count_disagrees,
    _float_children,
    _missing_roots,
    _v1_marker,
]


def _mutated(forest, mutate) -> bytes:
    arrays = _members(forest_to_bytes(forest))
    mutate(arrays)
    return _npz(arrays)


class TestPayloadEdges:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @given(problems(), st.integers(1, 6), st.integers(1, 6), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_loaded_forest_scores_the_fitted_bytes(self, problem, n_trees, max_depth, seed):
        x, y, probe = problem
        forest = RandomForestClassifier(
            n_trees=n_trees, max_depth=max_depth, min_samples_leaf=1, seed=seed
        ).fit(x, y)
        payload = forest_to_bytes(forest)
        assert set(_members(payload)) == {
            "__magic__", "__config__", "feature", "threshold", "child",
            "value", "roots", "importances",
        }  # whatever the tree count
        loaded = forest_from_bytes(payload)
        for rows in (probe, x):
            assert loaded.predict_proba(rows).tobytes() == forest.predict_proba(rows).tobytes()
        assert loaded.feature_importances_.tobytes() == forest.feature_importances_.tobytes()
        assert _payload_digest(forest_to_bytes(loaded)) == _payload_digest(payload)

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__.strip("_"))
    def test_mutated_payload_raises_model_error(self, fitted, mutate):
        forest, _, _ = fitted
        with pytest.raises(ModelError):
            forest_from_bytes(_mutated(forest, mutate))

    def test_unreadable_payload_raises_model_error(self, fitted):
        payload = forest_to_bytes(fitted[0])
        bare = io.BytesIO()
        np.save(bare, np.arange(3))
        cuts = [payload[:cut] for cut in (0, 10, len(payload) // 2, len(payload) - 1)]
        for bad in [*cuts, b"garbage", bare.getvalue()]:
            with pytest.raises(ModelError):
                forest_from_bytes(bad)

    @pytest.mark.parametrize(
        "bad",
        [_v1_marker, _backward_child, "truncated"],
        ids=["v1_marker", "backward_child", "truncated"],
    )
    def test_registry_keeps_serving_on_a_bad_payload(self, fitted, capture_spans, bad):
        forest, _, _ = fitted
        catalog = Catalog()
        registry = ModelRegistry()
        registry.publish_durable(catalog, "2014-06", forest)
        registry.activate("2014-06")
        if bad == "truncated":
            payload = forest_to_bytes(forest)[:-100]
        else:
            payload = _mutated(forest, bad)
        catalog.store.write(model_path("2014-07"), payload)
        with pytest.raises(ModelError):
            registry.activate_from_store(catalog, "2014-07")
        assert registry.current() == ("2014-06", forest)
        assert capture_spans.counter("serve.model_swaps") == 1
