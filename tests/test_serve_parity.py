"""Online-vs-batch scoring parity: bit-identical on both backends.

The serving path adds a storage roundtrip (float64 raw codec), a
micro-batch decomposition, and a score cache — none of which may change
a single bit of the score a customer would have received from the batch
predictor over the same snapshot.  Checked for 1k sampled customers
under both the Serial and ProcessPool executor backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from serve_sync import SyncClient
from repro.config import ModelConfig
from repro.core.predictor import ChurnPredictor
from repro.dataplat.executor import ProcessPoolBackend, SerialBackend
from repro.serve import (
    FeatureStore,
    FixedServiceTime,
    ModelRegistry,
    ScoringService,
    ServeConfig,
)

SAMPLE = 1000
MONTH = 3


@pytest.fixture(scope="module")
def snapshot(small_builder):
    return small_builder.features(MONTH, ("F1", "F2"))


@pytest.fixture(scope="module")
def fitted(snapshot):
    """One predictor per backend, fitted on identical data."""
    rng = np.random.default_rng(5)
    y = (
        snapshot.values[:, 0] > np.median(snapshot.values[:, 0])
    ).astype(np.int64)
    y ^= (rng.random(len(y)) < 0.1).astype(np.int64)  # label noise
    config = ModelConfig(n_trees=8, max_depth=8, min_samples_leaf=20)
    predictors = {}
    pool = ProcessPoolBackend(max_workers=2)
    try:
        for label, backend in (
            ("serial", SerialBackend()),
            ("process", pool),
        ):
            predictors[label] = ChurnPredictor(
                "rf", config=config, seed=5, backend=backend
            ).fit(snapshot.values, y)
        yield predictors
    finally:
        pool.close()


@pytest.fixture(scope="module")
def sample_ids(snapshot):
    rng = np.random.default_rng(17)
    idx = rng.choice(snapshot.n_rows, size=min(SAMPLE, snapshot.n_rows), replace=False)
    return idx, snapshot.imsi[idx]


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_online_scores_bit_identical_to_batch(
    snapshot, fitted, sample_ids, backend
):
    idx, imsi = sample_ids
    predictor = fitted[backend]
    batch_scores = predictor.predict_proba(snapshot.values[idx])

    store = FeatureStore(cache_rows=2048)
    store.materialize(snapshot, f"m{MONTH}-{backend}", buckets=8)
    registry = ModelRegistry()
    registry.publish("v1", predictor, activate=True)
    service = ScoringService(
        store,
        registry,
        ServeConfig(max_batch=64, batch_window_s=0.002, max_queue_depth=256),
        service_time=FixedServiceTime(),
    )
    online_scores = SyncClient(service).score(imsi)
    assert np.array_equal(online_scores, batch_scores)


def test_backends_agree_with_each_other(snapshot, fitted, sample_ids):
    idx, _ = sample_ids
    serial = fitted["serial"].predict_proba(snapshot.values[idx])
    process = fitted["process"].predict_proba(snapshot.values[idx])
    assert np.array_equal(serial, process)


def test_parity_survives_cache_hits(snapshot, fitted, sample_ids):
    """A re-score served from the memoized cache is the same bits too."""
    idx, imsi = sample_ids
    predictor = fitted["serial"]
    store = FeatureStore(cache_rows=2048)
    store.materialize(snapshot, "cachecheck", buckets=8)
    registry = ModelRegistry()
    registry.publish("v1", predictor, activate=True)
    service = ScoringService(
        store,
        registry,
        ServeConfig(score_cache_rows=4096),
        service_time=FixedServiceTime(),
    )
    client = SyncClient(service)
    first = client.score(imsi[:200])
    second = client.score(imsi[:200])
    assert np.array_equal(first, second)
    assert np.array_equal(first, predictor.predict_proba(snapshot.values[idx[:200]]))
