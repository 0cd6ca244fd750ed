"""Unit tests for the online scoring service (store, registry, batcher)."""

from __future__ import annotations

import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serve_sync import SyncClient
from repro.dataplat.catalog import Catalog
from repro.dataplat.observability import Histogram
from repro.errors import DataPlatformError, ServeError, TransientError
from repro.features.spec import FeatureMatrix
from repro.ml.forest import RandomForestClassifier
from repro.serve import (
    FeatureStore,
    FixedServiceTime,
    ModelRegistry,
    ScoringService,
    ServeConfig,
)

N_ROWS = 240
N_FEATURES = 5


def make_matrix(seed: int = 0, n: int = N_ROWS) -> FeatureMatrix:
    rng = np.random.default_rng(seed)
    imsi = rng.permutation(np.arange(50_000, 50_000 + n)).astype(np.int64)
    values = rng.normal(size=(n, N_FEATURES))
    return FeatureMatrix(
        imsi=imsi, names=[f"f{i}" for i in range(N_FEATURES)], values=values
    )


def make_forest(matrix: FeatureMatrix, seed: int = 1) -> RandomForestClassifier:
    rng = np.random.default_rng(seed)
    y = (matrix.values[:, 0] + 0.2 * rng.normal(size=matrix.n_rows) > 0).astype(
        np.int64
    )
    return RandomForestClassifier(
        n_trees=5, max_depth=6, min_samples_leaf=10, seed=seed
    ).fit(matrix.values, y)


@pytest.fixture()
def matrix() -> FeatureMatrix:
    return make_matrix()


@pytest.fixture()
def store(matrix) -> FeatureStore:
    store = FeatureStore(cache_rows=64)
    store.materialize(matrix, "m3", buckets=4)
    return store


@pytest.fixture()
def registry(matrix) -> ModelRegistry:
    registry = ModelRegistry()
    registry.publish("v1", make_forest(matrix, seed=1), activate=True)
    return registry


def row_for(matrix: FeatureMatrix, cid: int) -> np.ndarray:
    (idx,) = np.nonzero(matrix.imsi == cid)
    return matrix.values[idx[0]]


def count_scans(store: FeatureStore) -> list[str]:
    """Record every ``catalog.scan`` the store makes from now on."""
    calls: list[str] = []
    real_scan = store.catalog.scan

    def scan(name, *args, **kwargs):
        calls.append(name)
        return real_scan(name, *args, **kwargs)

    store.catalog.scan = scan
    return calls


_PROP_MATRIX = make_matrix(seed=5)
_PROP_STORES: dict[tuple[int, int], FeatureStore] = {}


def _prop_store(buckets: int, cache_rows: int) -> FeatureStore:
    """One store per (buckets, budget), kept across examples so resident
    state carries from one drawn lookup to the next."""
    key = (buckets, cache_rows)
    if key not in _PROP_STORES:
        catalog = Catalog()
        FeatureStore(catalog=catalog).materialize(
            _PROP_MATRIX, "prop", buckets=buckets
        )
        _PROP_STORES[key] = FeatureStore(catalog=catalog, cache_rows=cache_rows)
        _PROP_STORES[key].attach("prop")
    return _PROP_STORES[key]


@settings(max_examples=120, deadline=None)
@given(
    buckets=st.sampled_from([1, 3, 8]),
    budget=st.sampled_from(["none", "one bucket", "all rows"]),
    rows=st.lists(st.integers(0, N_ROWS - 1), max_size=80),
)
def test_lookup_equals_matrix_rows(buckets, budget, rows):
    cache_rows = {"none": 0, "one bucket": -(-N_ROWS // buckets), "all rows": N_ROWS}
    store = _prop_store(buckets, cache_rows[budget])
    got = store.lookup(_PROP_MATRIX.imsi[rows])
    want = _PROP_MATRIX.values[rows]
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestFeatureStore:
    def test_lookup_roundtrip_bit_identical(self, store, matrix):
        sample = matrix.imsi[[3, 77, 140, 10]]
        rows = store.lookup(sample)
        expected = np.stack([row_for(matrix, c) for c in sample.tolist()])
        assert np.array_equal(rows, expected)  # float64 codec is lossless

    def test_lookup_preserves_request_order_and_duplicates(self, store, matrix):
        sample = [matrix.imsi[9], matrix.imsi[4], matrix.imsi[9]]
        rows = store.lookup(sample)
        assert np.array_equal(rows[0], rows[2])
        assert np.array_equal(rows[1], row_for(matrix, int(matrix.imsi[4])))

    def test_unknown_customer_raises(self, store):
        with pytest.raises(ServeError, match="unknown customer"):
            store.lookup([123])

    def test_point_lookup_prunes_buckets(self, matrix, capture_spans):
        store = FeatureStore(cache_rows=0)
        store.materialize(matrix, "m3", buckets=4)
        before = capture_spans.counter("columnar.partitions_pruned")
        store.lookup([int(matrix.imsi[0])])
        pruned = capture_spans.counter("columnar.partitions_pruned") - before
        # One id lives in exactly one of four disjoint id-range buckets.
        assert pruned == 3

    def test_cache_hits_and_eviction(self, matrix, capture_spans):
        # 240 ids in four buckets of 60: 50_000 + 60 * b is in bucket b.
        first_of = [50_000 + 60 * b for b in range(4)]
        tight = FeatureStore(cache_rows=59)  # smaller than one bucket
        tight.materialize(matrix, "m3", buckets=4)
        scans = count_scans(tight)
        for i in range(3):
            tight.lookup(first_of[:2])
            assert len(scans) == i + 1  # nothing admitted: every lookup misses
        assert capture_spans.counter("serve.store.hits") == 0
        assert capture_spans.counter("serve.store.misses") == 6

        store = FeatureStore(cache_rows=120)  # two buckets
        store.materialize(matrix, "m3b", buckets=4)
        before = {
            name: capture_spans.counter(f"serve.store.{name}")
            for name in ("hits", "misses", "evictions")
        }

        def delta(name: str) -> float:
            return capture_spans.counter(f"serve.store.{name}") - before[name]

        store.lookup([first_of[0], first_of[0]])  # miss x2: bucket 0 in
        store.lookup([first_of[1]])  # miss: bucket 1 in
        store.lookup([first_of[0]])  # hit: bucket 0 now most recent
        assert (delta("hits"), delta("misses"), delta("evictions")) == (1, 3, 0)
        store.lookup([first_of[2]])  # miss: evicts bucket 1 (LRU)
        assert delta("evictions") == 1
        store.lookup([first_of[0], first_of[2]])  # both resident
        assert (delta("hits"), delta("misses")) == (3, 4)
        store.lookup([first_of[1]])  # evicted, so fetched again
        assert (delta("misses"), delta("evictions")) == (5, 2)

    def test_resident_lookup_makes_no_scan(self, matrix, capture_spans):
        store = FeatureStore(cache_rows=N_ROWS)
        store.materialize(matrix, "m3", buckets=4)
        scans = count_scans(store)
        sample = matrix.imsi[:40]  # a permutation prefix: every bucket
        store.lookup(sample)
        assert len(scans) == 1
        store.lookup(sample[::-1])
        store.lookup(sample[:3])
        assert len(scans) == 1
        first, *_, last = capture_spans.find("serve.store.lookup")
        assert first.tags["buckets"] == first.tags["buckets_fetched"] == 4
        assert last.tags["buckets_fetched"] == 0

    def test_uncached_store_scans_exactly_once_per_lookup(self, matrix):
        store = FeatureStore(cache_rows=0)
        store.materialize(matrix, "m3", buckets=4)
        scans = count_scans(store)
        for i, sample in enumerate(
            [matrix.imsi[:50], matrix.imsi[:1], matrix.imsi[:50]]
        ):
            store.lookup(sample)
            assert len(scans) == i + 1

    @pytest.mark.parametrize(
        "bad", [[49_000], [50_000 + 2 * N_ROWS], [50_001], [50_003, 49_999]]
    )
    def test_unknown_ids_are_named(self, bad):
        # Even ids only: odd ids inside a bucket's range are in no bucket.
        rng = np.random.default_rng(4)
        gapped = FeatureMatrix(
            imsi=50_000 + 2 * np.arange(N_ROWS, dtype=np.int64),
            names=[f"f{i}" for i in range(N_FEATURES)],
            values=rng.normal(size=(N_ROWS, N_FEATURES)),
        )
        store = FeatureStore()
        store.materialize(gapped, "gaps", buckets=4)
        known = [50_000, 50_002 + N_ROWS]
        with pytest.raises(ServeError, match="unknown customer ids") as err:
            store.lookup(known + bad)
        assert str(err.value).endswith(f"{sorted(bad)}")
        # The resident buckets the failed lookup admitted still answer.
        assert np.array_equal(store.lookup(known), gapped.values[[0, 121]])

    def test_attach_rediscovers_snapshot_from_catalog(self, matrix):
        catalog = Catalog()
        first = FeatureStore(catalog=catalog)
        first_info = first.materialize(matrix, "m3", buckets=4)
        second = FeatureStore(catalog=catalog)
        info = second.attach("m3")
        assert info == first_info  # bounds included
        assert info.bounds == (50_000, 50_060, 50_120, 50_180)
        sample = matrix.imsi[:7]
        assert np.array_equal(second.lookup(sample), first.lookup(sample))
        order = np.argsort(matrix.imsi)
        assert np.array_equal(
            second.lookup(matrix.imsi[order]), matrix.values[order]
        )

    def test_rewrite_by_another_store_is_never_mixed(self):
        ids = np.arange(70_000, 70_100, dtype=np.int64)
        names = [f"f{i}" for i in range(N_FEATURES)]
        catalog = Catalog()
        a = FeatureStore(catalog=catalog)
        a.materialize(
            FeatureMatrix(imsi=ids, names=names, values=np.zeros((100, N_FEATURES))),
            "s",
            buckets=4,
        )
        assert not a.lookup(ids[:5]).any()  # bucket 0 now resident in A
        b = FeatureStore(catalog=catalog)
        b.materialize(
            FeatureMatrix(imsi=ids, names=names, values=np.ones((100, N_FEATURES))),
            "s",
            buckets=4,
        )
        rows = a.lookup(np.concatenate([ids[:5], ids[50:55]]))
        assert (rows == 1.0).all()  # B's rows only, none of A's old zeros

    def test_rewrite_with_new_ids_and_fewer_buckets(self, matrix):
        catalog = Catalog()
        a = FeatureStore(catalog=catalog)
        a.materialize(matrix, "s", buckets=8)
        a.lookup(matrix.imsi[:20])
        shifted = FeatureMatrix(
            imsi=matrix.imsi + 1_000, names=list(matrix.names), values=matrix.values
        )
        FeatureStore(catalog=catalog).materialize(shifted, "s", buckets=3)
        assert len(catalog.partitions("features_s", "serve")) == 3
        assert np.array_equal(a.lookup(shifted.imsi[:20]), matrix.values[:20])
        assert a.active_snapshot.bounds == (51_000, 51_080, 51_160)
        with pytest.raises(ServeError, match="unknown customer ids"):
            a.lookup(matrix.imsi[:1])  # 50_xxx ids left with the rewrite

    def test_dropped_store_is_not_kept_alive_by_its_catalog(self, matrix):
        catalog = Catalog()
        store = FeatureStore(catalog=catalog)
        store.materialize(matrix, "m3", buckets=4)
        ref = weakref.ref(store)
        del store
        assert ref() is None  # no collector run needed: no cycle
        FeatureStore(catalog=catalog).materialize(matrix, "m3", buckets=4)

    def test_pickled_copy_keeps_its_own_invalidation(self, matrix):
        store = FeatureStore()
        store.materialize(matrix, "m3", buckets=4)
        store.lookup(matrix.imsi[:20])
        copy = pickle.loads(pickle.dumps(store))
        assert np.array_equal(copy.lookup(matrix.imsi[:20]), matrix.values[:20])
        doubled = FeatureMatrix(
            imsi=matrix.imsi, names=list(matrix.names), values=2 * matrix.values
        )
        FeatureStore(catalog=copy.catalog).materialize(doubled, "m3", buckets=4)
        assert np.array_equal(
            copy.lookup(matrix.imsi[:20]), 2 * matrix.values[:20]
        )
        # The original's catalog is a different object: untouched.
        assert np.array_equal(store.lookup(matrix.imsi[:20]), matrix.values[:20])

    def test_attach_unknown_snapshot_raises(self, store):
        with pytest.raises(ServeError, match="unknown snapshot"):
            store.attach("nope")

    def test_materialize_rejects_duplicates_and_bad_names(self, matrix):
        store = FeatureStore()
        dup = FeatureMatrix(
            imsi=np.array([1, 1]),
            names=list(matrix.names),
            values=np.zeros((2, N_FEATURES)),
        )
        with pytest.raises(ServeError, match="duplicate"):
            store.materialize(dup, "m3")
        with pytest.raises(ServeError, match="invalid snapshot"):
            store.materialize(matrix, "bad/name")


class TestModelRegistry:
    def test_publish_activate_current(self, matrix):
        registry = ModelRegistry()
        forest = make_forest(matrix)
        registry.publish("v1", forest)
        assert registry.active_version is None
        registry.activate("v1")
        assert registry.current() == ("v1", forest)
        assert registry.swaps == 1

    def test_duplicate_and_unknown_versions_raise(self, matrix):
        registry = ModelRegistry()
        registry.publish("v1", make_forest(matrix))
        with pytest.raises(ServeError, match="already published"):
            registry.publish("v1", make_forest(matrix))
        with pytest.raises(ServeError, match="unknown model version"):
            registry.activate("v9")
        with pytest.raises(ServeError, match="no active model"):
            registry.current()

    def test_model_without_predict_proba_rejected(self):
        with pytest.raises(ServeError, match="predict_proba"):
            ModelRegistry().publish("v1", object())

    def test_swap_counter_and_subscribers(self, matrix, capture_spans):
        registry = ModelRegistry()
        seen: list[str] = []
        registry.subscribe(seen.append)
        registry.publish("v1", make_forest(matrix, seed=1), activate=True)
        registry.publish("v2", make_forest(matrix, seed=2), activate=True)
        assert seen == ["v1", "v2"]
        assert capture_spans.counter("serve.model_swaps") == 2

    def test_failed_loader_falls_back_to_stale_model(self, matrix, capture_spans):
        registry = ModelRegistry()
        registry.publish("v1", make_forest(matrix), activate=True)

        def explode():
            raise TransientError("model bytes unreadable")

        assert registry.activate("v2", loader=explode) is False
        assert registry.active_version == "v1"  # stale model keeps serving
        assert capture_spans.counter("serve.model_swap_failures") == 1
        assert capture_spans.counter("serve.model_swaps") == 1

    def test_durable_publish_roundtrip(self, matrix):
        catalog = Catalog()
        forest = make_forest(matrix)
        registry = ModelRegistry()
        registry.publish_durable(catalog, "v1", forest, activate=True)
        other = ModelRegistry()
        assert other.activate_from_store(catalog, "v1") is True
        _, loaded = other.current()
        probe = matrix.values[:13]
        assert np.array_equal(
            loaded.predict_proba(probe), forest.predict_proba(probe)
        )


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"batch_window_s": -0.001},
            {"max_queue_depth": 3, "max_batch": 4},
            {"default_deadline_s": 0.0},
            {"score_cache_rows": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ServeError):
            ServeConfig(**kwargs)


class TestScoringService:
    def make_service(self, store, registry, **overrides) -> ScoringService:
        defaults = dict(
            max_batch=4,
            batch_window_s=0.010,
            max_queue_depth=8,
            default_deadline_s=0.250,
        )
        defaults.update(overrides)
        return ScoringService(
            store,
            registry,
            ServeConfig(**defaults),
            service_time=FixedServiceTime(base_s=0.002, per_row_s=0.0001),
        )

    def test_window_dispatch_timing(self, store, registry, matrix):
        service = self.make_service(store, registry)
        ticket = service.submit(int(matrix.imsi[0]), now=0.0)
        assert service.poll(0.009) == []  # window not elapsed
        done = service.poll(0.013)
        assert done == [ticket]
        assert ticket.outcome == "scored"
        # dispatch at 0.010 (window) + base 0.002 + 1 row * 0.0001
        assert ticket.completion_s == pytest.approx(0.0121)

    def test_full_batch_dispatches_immediately(self, store, registry, matrix):
        service = self.make_service(store, registry)
        tickets = [
            service.submit(int(matrix.imsi[i]), now=0.001) for i in range(4)
        ]
        done = service.poll(0.004)  # before the 10ms window
        assert done == tickets
        assert {t.batch_id for t in tickets} == {0}
        assert [t.request_id for t in tickets] == sorted(
            t.request_id for t in tickets
        )

    def test_shed_with_retry_after_when_queue_full(
        self, store, registry, matrix, capture_spans
    ):
        # A slow server: the first request dispatches alone (idle server,
        # zero window) and occupies the server for 50ms, so the next four
        # stay queued and the sixth submit finds the queue at its bound.
        service = ScoringService(
            store,
            registry,
            ServeConfig(
                max_batch=2, max_queue_depth=4, batch_window_s=0.0
            ),
            service_time=FixedServiceTime(base_s=0.050, per_row_s=0.0),
        )
        ids = [int(c) for c in matrix.imsi[:8]]
        for cid in ids[:5]:
            service.submit(cid, now=0.001)
        shed = service.submit(ids[5], now=0.001)
        assert shed.outcome == "shed"
        assert shed.retry_after_s is not None and shed.retry_after_s > 0
        assert capture_spans.counter("serve.shed") == 1
        assert capture_spans.metrics.gauge("serve.queue_depth").value <= 4
        service.drain()

    def test_deadline_expires_behind_slow_batches(self, store, registry, matrix):
        service = ScoringService(
            store,
            registry,
            ServeConfig(max_batch=1, batch_window_s=0.0, max_queue_depth=8),
            service_time=FixedServiceTime(base_s=0.100, per_row_s=0.0),
        )
        first = service.submit(int(matrix.imsi[0]), now=0.0)
        # Dispatches at t=0 and holds the server until t=0.1; the second
        # request's 20ms deadline passes before its batch can start.
        late = service.submit(int(matrix.imsi[1]), now=0.001, deadline_s=0.020)
        done = service.drain()
        assert first.outcome == "scored"
        assert late.outcome == "expired"
        assert late.score is None
        assert done == [first, late]

    def test_monotone_clock_enforced(self, store, registry, matrix):
        service = self.make_service(store, registry)
        service.submit(int(matrix.imsi[0]), now=1.0)
        with pytest.raises(ServeError, match="backwards"):
            service.submit(int(matrix.imsi[1]), now=0.5)

    def test_score_sync_matches_direct_predict(self, store, registry, matrix):
        service = self.make_service(store, registry)
        sample = matrix.imsi[:10]
        scores = SyncClient(service).score(sample)
        _, model = registry.current()
        expected = model.predict_proba(
            np.stack([row_for(matrix, int(c)) for c in sample.tolist()])
        )
        assert np.array_equal(scores, expected)

    def test_slo_snapshot_sets_gauges(self, store, registry, matrix, capture_spans):
        service = self.make_service(store, registry)
        SyncClient(service).score(matrix.imsi[:8])
        slo = service.slo_snapshot()
        gauges = capture_spans.metrics
        assert gauges.gauge("serve.latency_p99_s").value == slo["latency_p99_s"]
        assert slo["latency_p99_s"] > 0
        assert slo["shed_rate"] == 0.0


class TestModelSwapDuringTraffic:
    def test_swap_mid_batch_never_mixes_versions(self, matrix, capture_spans):
        """A swap landing while a batch is in flight must not split it.

        The store wrapper swaps the registry to v2 *during* the batch's
        feature lookup — after dispatch captured the active model.  Every
        response in that batch must still be a v1 score.
        """
        catalog = Catalog()
        store = FeatureStore(catalog=catalog, cache_rows=64)
        store.materialize(matrix, "m3", buckets=4)
        registry = ModelRegistry()
        v1 = make_forest(matrix, seed=1)
        v2 = make_forest(matrix, seed=2)
        registry.publish("v1", v1, activate=True)
        registry.publish("v2", v2)

        real_lookup = store.lookup
        fired = []

        def swapping_lookup(customer_ids):
            if not fired:
                fired.append(True)
                registry.activate("v2")
            return real_lookup(customer_ids)

        store.lookup = swapping_lookup
        # A long window keeps all eight requests in ONE batch: nothing
        # triggers during the submits, drain() dispatches them together.
        service = ScoringService(
            store,
            registry,
            ServeConfig(max_batch=8, batch_window_s=1.0, max_queue_depth=16,
                        score_cache_rows=0),
            service_time=FixedServiceTime(),
        )
        sample = [int(c) for c in matrix.imsi[:7]]
        tickets = [
            service.submit(c, now=0.0, deadline_s=30.0) for c in sample
        ]
        service.drain()
        assert {t.batch_id for t in tickets} == {0}
        assert {t.model_version for t in tickets} == {"v1"}
        rows = np.stack([row_for(matrix, c) for c in sample])
        assert np.array_equal(
            np.array([t.score for t in tickets]), v1.predict_proba(rows)
        )
        # The *next* batch picks up v2.
        after = [
            service.submit(c, now=10.0, deadline_s=30.0) for c in sample
        ]
        service.drain()
        assert {t.model_version for t in after} == {"v2"}
        assert np.array_equal(
            np.array([t.score for t in after]), v2.predict_proba(rows)
        )

    def test_swap_invalidates_memoized_scores(self, store, matrix, capture_spans):
        registry = ModelRegistry()
        v1 = make_forest(matrix, seed=1)
        v2 = make_forest(matrix, seed=2)
        registry.publish("v1", v1, activate=True)
        registry.publish("v2", v2)
        service = ScoringService(
            store,
            registry,
            ServeConfig(max_batch=4, batch_window_s=0.0, max_queue_depth=8,
                        score_cache_rows=128),
            service_time=FixedServiceTime(),
        )
        sample = matrix.imsi[:4]
        rows = np.stack([row_for(matrix, int(c)) for c in sample.tolist()])
        client = SyncClient(service)
        first = client.score(sample)
        assert np.array_equal(first, v1.predict_proba(rows))
        # Same ids again: served from the memoized score cache.
        again = client.score(sample)
        assert np.array_equal(again, first)
        registry.activate("v2")
        swapped = client.score(sample)
        assert np.array_equal(swapped, v2.predict_proba(rows))
        assert capture_spans.counter("serve.model_swaps") == 2


class TestHistogramQuantile:
    def test_empty_returns_zero(self):
        assert Histogram("h", (1.0, 2.0)).quantile(0.99) == 0.0

    def test_bucket_upper_bound_is_conservative(self):
        hist = Histogram("h", (0.01, 0.05, 0.1))
        for value in (0.002, 0.003, 0.004, 0.02):
            hist.observe(value)
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(0.99) == 0.05

    def test_overflow_bucket_reports_observed_max(self):
        hist = Histogram("h", (0.01,))
        hist.observe(0.005)
        hist.observe(7.5)
        assert hist.quantile(1.0) == 7.5

    def test_invalid_q_rejected(self):
        hist = Histogram("h", (1.0,))
        with pytest.raises(DataPlatformError):
            hist.quantile(0.0)
        with pytest.raises(DataPlatformError):
            hist.quantile(1.5)
