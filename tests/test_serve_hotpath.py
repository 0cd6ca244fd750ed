"""The serving hot path against plain reference models.

* :meth:`FeatureStore.lookup` over its resident index, against a
  ``{imsi: row}`` dict and a per-bucket LRU model of residency: rows,
  errors, scans, hit/miss counters and evictions, with rewrites of the
  snapshot through a second store in between;
* the micro-batcher's cached head-batch start, against the rule it caches
  (``start = max(trigger, busy_until)``, recomputed at every step);
* instrument handles that follow :func:`set_metrics`.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplat import observability
from repro.dataplat.catalog import Catalog
from repro.errors import ServeError
from repro.features.spec import FeatureMatrix
from repro.serve import (
    SERVE_LATENCY_BUCKETS,
    FeatureStore,
    FixedServiceTime,
    ModelRegistry,
    ScoringService,
    ServeConfig,
)

N_ROWS = 47
N_FEATURES = 3
#: Known ids are 1000, 1003, 1006, ...: every bucket has gaps inside its
#: zone map, so an unknown id can make a bucket scan and still miss.
KNOWN = 1000 + 3 * np.arange(N_ROWS, dtype=np.int64)
UNKNOWN = (999, 1001, 1000 + 3 * N_ROWS, 5)


def _matrix(seed: int) -> FeatureMatrix:
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        imsi=rng.permutation(KNOWN),
        names=[f"f{i}" for i in range(N_FEATURES)],
        values=rng.normal(size=(N_ROWS, N_FEATURES)),
    )


class StoreModel:
    """What a lookup must return and do, from first principles."""

    def __init__(self, matrix: FeatureMatrix, bounds, cache_rows: int) -> None:
        self.rows = {int(c): matrix.values[i] for i, c in enumerate(matrix.imsi)}
        self.bounds = list(bounds)
        ids = np.sort(matrix.imsi)
        edges = np.searchsorted(ids, self.bounds).tolist() + [len(ids)]
        #: Per bucket: (first id, last id, rows) — the zone map and size.
        self.buckets = [
            (int(ids[lo]), int(ids[hi - 1]), hi - lo)
            for lo, hi in zip(edges, edges[1:])
        ]
        self.cache_rows = cache_rows
        self.resident: OrderedDict[int, int] = OrderedDict()

    def owner(self, cid: int) -> int:
        return int(np.searchsorted(self.bounds, cid, side="right")) - 1

    def lookup(self, cids: list[int]) -> dict:
        owners = [self.owner(c) for c in cids]
        touched = sorted({b for b in owners if b >= 0})
        hits = sum(b in self.resident for b in owners)
        for b in touched:
            if b in self.resident:
                self.resident.move_to_end(b)
        fetch = [b for b in touched if b not in self.resident]
        evictions = 0
        for b in fetch:
            first, last, size = self.buckets[b]
            wanted = [c for c, o in zip(cids, owners) if o == b]
            if not any(first <= c <= last for c in wanted):
                continue  # pruned by its zone map: not read, not admitted
            if size > self.cache_rows:
                continue
            self.resident[b] = size
            while sum(self.resident.values()) > self.cache_rows:
                self.resident.popitem(last=False)
                evictions += 1
        return {
            "scans": int(bool(fetch)),
            "hits": hits,
            "evictions": evictions,
            "unknown": sorted({c for c in cids if c not in self.rows}),
        }


def _count_scans(catalog: Catalog) -> list[str]:
    calls: list[str] = []
    real_scan = catalog.scan

    def scan(name, *args, **kwargs):
        calls.append(name)
        return real_scan(name, *args, **kwargs)

    catalog.scan = scan
    return calls


lookups = st.tuples(
    st.just("lookup"),
    st.lists(st.sampled_from(KNOWN.tolist()), max_size=8),
    st.one_of(st.none(), st.sampled_from(UNKNOWN)),
)
rewrites = st.tuples(
    st.just("rewrite"), st.integers(0, 2**16), st.sampled_from([1, 3, 5])
)


@settings(max_examples=150, deadline=None)
@given(
    buckets=st.sampled_from([1, 3, 5]),
    budget=st.sampled_from(["none", "under one bucket", "a few buckets", "all"]),
    ops=st.lists(st.one_of(lookups, lookups, lookups, rewrites), max_size=16),
)
def test_lookup_matches_dict_and_lru_model(buckets, budget, ops):
    previous = observability.set_metrics(observability.MetricsRegistry())
    try:
        catalog = Catalog()
        matrix = _matrix(0)
        info = FeatureStore(catalog=catalog).materialize(matrix, "s", buckets)
        smallest = N_ROWS // buckets
        cache_rows = {
            "none": 0,
            "under one bucket": smallest - 1,
            "a few buckets": 2 * smallest + 1,
            "all": N_ROWS,
        }[budget]
        store = FeatureStore(catalog=catalog, cache_rows=cache_rows)
        store.attach("s")
        model = StoreModel(matrix, info.bounds, cache_rows)
        scans = _count_scans(catalog)
        metrics = observability.get_metrics()

        def counter(name: str) -> float:
            return metrics.counter(f"serve.store.{name}").value

        for op in ops:
            if op[0] == "rewrite":
                # A second store on the same catalog overwrites the
                # snapshot: the first store's index must be dropped.
                matrix = _matrix(op[1])
                info = FeatureStore(catalog=catalog).materialize(
                    matrix, "s", op[2]
                )
                model = StoreModel(matrix, info.bounds, cache_rows)
                continue
            cids = list(op[1]) + ([] if op[2] is None else [op[2]])
            cids = [int(c) for c in np.random.default_rng(len(cids)).permutation(cids)]
            want = model.lookup(cids)
            before = (len(scans), counter("hits"), counter("misses"))
            evictions = counter("evictions")
            if want["unknown"]:
                with pytest.raises(ServeError, match="unknown customer ids") as err:
                    store.lookup(cids)
                assert str(err.value).endswith(f"{want['unknown'][:10]}")
                # A failed lookup counts no hits or misses.
                assert (counter("hits"), counter("misses")) == before[1:]
            else:
                got = store.lookup(cids)
                expected = np.array(
                    [model.rows[c] for c in cids], dtype=np.float64
                ).reshape(len(cids), N_FEATURES)
                assert got.tobytes() == expected.tobytes()
                assert counter("hits") - before[1] == want["hits"]
                hits_misses = counter("hits") + counter("misses") - sum(before[1:])
                assert hits_misses == len(cids)
            assert len(scans) - before[0] == want["scans"]
            assert counter("evictions") - evictions == want["evictions"]
            # Residency stays consistent, whatever the lookup raised: the
            # model's resident buckets answer without a scan.
            resident = [
                c for c in KNOWN.tolist() if model.owner(c) in model.resident
            ]
            assert model.lookup(resident)["scans"] == 0
            scans_before = len(scans)
            assert store.lookup(resident).tobytes() == np.array(
                [model.rows[c] for c in resident], dtype=np.float64
            ).reshape(len(resident), N_FEATURES).tobytes()
            assert len(scans) == scans_before
    finally:
        observability.set_metrics(previous)


# ----------------------------------------------------------------------
# The cached head-batch start against the rule, recomputed every step.


class ReferenceBatcher:
    """The batching rule with nothing cached: every step re-derives the
    head batch's start from the queue and dispatches while it is due."""

    def __init__(self, config: ServeConfig, service_time: FixedServiceTime) -> None:
        self.config = config
        self.service_time = service_time
        self.queue: list[tuple[int, float, float]] = []
        self.busy_until = 0.0
        self.now = 0.0
        self.next_id = 0
        #: request id -> (outcome, batch id, completion, retry_after)
        self.out: dict[int, tuple] = {}
        self.batches: list[int] = []

    def start(self) -> float:
        window = self.queue[0][1] + self.config.batch_window_s
        if len(self.queue) >= self.config.max_batch:
            window = min(window, self.queue[self.config.max_batch - 1][1])
        return max(window, self.busy_until)

    def pump(self) -> None:
        while self.queue and self.start() <= self.now:
            self.dispatch(self.start())

    def dispatch(self, start: float) -> None:
        size = min(len(self.queue), self.config.max_batch)
        batch, self.queue = self.queue[:size], self.queue[size:]
        batch_id = len(self.batches)
        self.batches.append(size)
        live = [r for r in batch if r[2] >= start]
        service = self.service_time(0.0, len(live)) if live else 0.0
        completion = start + service
        self.busy_until = max(self.busy_until, completion)
        for rid, _, deadline in batch:
            if deadline < start:
                self.out[rid] = ("expired", None, start, None)
            else:
                self.out[rid] = ("scored", batch_id, completion, None)

    def advance(self, now: float) -> None:
        self.now = now
        self.pump()

    def submit(self, now: float, deadline_s: float) -> None:
        self.advance(now)
        rid = self.next_id
        self.next_id += 1
        if len(self.queue) >= self.config.max_queue_depth:
            retry = max(self.busy_until - now, 0.0) + self.config.batch_window_s
            self.out[rid] = ("shed", None, now, retry)
            return
        self.queue.append((rid, now, now + deadline_s))
        self.pump()

    def drain(self) -> None:
        while self.queue:
            self.dispatch(max(self.start(), self.now))
        self.now = max(self.now, self.busy_until)


_props_matrix = FeatureMatrix(
    imsi=np.arange(16, dtype=np.int64),
    names=["f0"],
    values=np.arange(16, dtype=np.float64).reshape(16, 1),
)
_props_store = FeatureStore(cache_rows=16)
_props_store.materialize(_props_matrix, "batcher", buckets=2)


class SumModel:
    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return x.sum(axis=1)


@settings(max_examples=100, deadline=None)
@given(
    max_batch=st.integers(1, 6),
    extra_depth=st.integers(0, 6),
    window=st.sampled_from([0.0, 0.001, 0.004]),
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("submit"),
                st.sampled_from([0.0, 0.0002, 0.001, 0.003]),
                st.sampled_from([0.0005, 0.004, 0.05]),
            ),
            st.tuples(st.just("poll"), st.sampled_from([0.0, 0.001, 0.006])),
        ),
        max_size=50,
    ),
)
def test_cached_start_dispatches_like_the_rule(max_batch, extra_depth, window, ops):
    previous = observability.set_metrics(observability.MetricsRegistry())
    try:
        config = ServeConfig(
            max_batch=max_batch,
            max_queue_depth=max_batch + extra_depth,
            batch_window_s=window,
            score_cache_rows=0,
        )
        timing = FixedServiceTime(base_s=0.001, per_row_s=0.0003)
        registry = ModelRegistry()
        registry.publish("v1", SumModel(), activate=True)
        service = ScoringService(_props_store, registry, config, service_time=timing)
        reference = ReferenceBatcher(config, timing)
        now = 0.0
        tickets = []
        for kind, step, *deadline in ops:
            now += step
            if kind == "submit":
                tickets.append(
                    service.submit(len(tickets) % 16, now=now, deadline_s=deadline[0])
                )
                reference.submit(now, deadline[0])
            else:
                service.poll(now)
                reference.advance(now)
            assert service.batch_sizes == reference.batches
        service.drain()
        reference.drain()
        assert service.batch_sizes == reference.batches
        for t in tickets:
            assert (
                t.outcome,
                t.batch_id,
                t.completion_s,
                t.retry_after_s,
            ) == reference.out[t.request_id]
    finally:
        observability.set_metrics(previous)


def test_instrument_handles_follow_the_registry():
    registry = ModelRegistry()
    registry.publish("v1", SumModel(), activate=True)
    service = ScoringService(
        _props_store, registry, service_time=FixedServiceTime()
    )
    old = observability.MetricsRegistry()
    previous = observability.set_metrics(old)
    try:
        service.submit(1, now=0.0)
        service.drain()  # handles now resolved in ``old``
        before = old.snapshot()
        new = observability.MetricsRegistry()
        observability.set_metrics(new)
        service.submit(2, now=1.0)
        (ticket,) = service.drain()
        assert ticket.outcome == "scored"
        assert new.counter("serve.requests").value == 1
        assert new.counter("serve.scored").value == 1
        latency = new.histogram("serve.latency_s", SERVE_LATENCY_BUCKETS)
        assert latency.total == 1 and latency.sum == ticket.latency_s
        assert old.snapshot() == before
    finally:
        observability.set_metrics(previous)
