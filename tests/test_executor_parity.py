"""Bit-identical parity of parallel backends, and table-cache behavior.

The executor's contract is that a :class:`ProcessPoolBackend` changes only
wall-clock time, never results: fitted forests and wide tables must match
a :class:`SerialBackend` run bit for bit.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import ChurnPipeline
from repro.core.window import WindowSpec
from repro.dataplat import executor
from repro.dataplat.blockstore import BlockStore, TableCache
from repro.dataplat.catalog import Catalog
from repro.dataplat.executor import (
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.dataplat.table import Table
from repro.features import ALL_CATEGORIES, WideTableBuilder
from repro.ml.forest import OneVsRestForest, RandomForestClassifier
from repro.ml.persistence import forest_to_bytes

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def pool():
    backend = ProcessPoolBackend(max_workers=2)
    yield backend
    backend.close()


def _make_xy(n=300, d=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = (rng.random(n) < 1 / (1 + np.exp(-2.0 * x[:, 0]))).astype(np.int64)
    return x, y


class TestForestParity:
    def test_fit_predict_bit_identical(self, pool):
        x, y = _make_xy()
        weights = np.linspace(0.5, 2.0, len(y))
        serial = RandomForestClassifier(n_trees=7, seed=3).fit(
            x, y, sample_weight=weights, backend=SerialBackend()
        )
        parallel = RandomForestClassifier(n_trees=7, seed=3).fit(
            x, y, sample_weight=weights, backend=pool
        )
        legacy = RandomForestClassifier(n_trees=7, seed=3).fit(
            x, y, sample_weight=weights
        )
        p_serial = serial.predict_proba(x)
        assert np.array_equal(p_serial, parallel.predict_proba(x))
        assert np.array_equal(p_serial, legacy.predict_proba(x))
        assert np.array_equal(
            serial.feature_importances_, parallel.feature_importances_
        )

    def test_one_vs_rest_parity(self, pool):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 5))
        y = rng.integers(0, 3, size=200)
        serial = OneVsRestForest(n_classes=3, n_trees=4, seed=2).fit(
            x, y, backend=SerialBackend()
        )
        parallel = OneVsRestForest(n_classes=3, n_trees=4, seed=2).fit(
            x, y, backend=pool
        )
        assert np.array_equal(serial.predict_proba(x), parallel.predict_proba(x))
        assert np.array_equal(serial.predict(x), parallel.predict(x))

    def test_fitted_forest_travels_without_backend(self, pool):
        import pickle

        x, y = _make_xy(n=80, d=4)
        model = RandomForestClassifier(n_trees=3, seed=0, backend=pool).fit(x, y)
        clone = pickle.loads(pickle.dumps(model))
        assert clone._backend is None
        assert np.array_equal(model.predict_proba(x), clone.predict_proba(x))


class TestWideTableParity:
    def test_prefetch_matches_serial_builds(self, tiny_world, pool):
        months = [2, 3]
        categories = ("F1", "F2", "F3")
        lazy = WideTableBuilder(tiny_world, seed=0)
        warmed = WideTableBuilder(tiny_world, seed=0).prefetch(
            months, categories, pool
        )
        for month in months:
            a = lazy.features(month, categories)
            b = warmed.features(month, categories)
            assert a.names == b.names
            assert np.array_equal(a.imsi, b.imsi)
            assert np.array_equal(a.values, b.values)

    def test_prefetch_skips_unfitted_supervised_families(self, tiny_world):
        builder = WideTableBuilder(tiny_world, seed=0)
        builder.prefetch([2], ("F1", "F7", "F9"), SerialBackend())
        assert ("F1", 2) in builder._cache
        assert ("F7", 2) not in builder._cache
        assert ("F9", 2) not in builder._cache


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


class TestGoldenParity:
    """One window, serial against an explicit 2-worker pool: same bytes."""

    SPEC = WindowSpec((4, 5, 6), 7)

    def _window(self, world, scale, model, backend):
        pipeline = ChurnPipeline(world, scale, model=model, backend=backend)
        result = pipeline.run_window(self.SPEC)
        table = _digest(
            *(
                pipeline.builder.features(m, ALL_CATEGORIES).values
                for m in (*self.SPEC.train_months, self.SPEC.test_month)
            )
        )
        forest = forest_to_bytes(result.predictor._model)
        return table, forest, _digest(result.scores)

    def test_pipeline_window_is_bit_identical(
        self, tiny_world, tiny_scale, small_model
    ):
        serial = self._window(tiny_world, tiny_scale, small_model, "serial")
        with ProcessPoolBackend(max_workers=2) as pool:
            pooled = self._window(tiny_world, tiny_scale, small_model, pool)
            # One fork per stage that fanned out: the extractor fits, the
            # per-month prefetch and the forest fit.  A fork per task or
            # per month would show here.
            assert pool.pool_forks == 3
            assert pool.fallbacks == 0
        assert pooled == serial

    def test_one_vs_rest_is_bit_identical(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(240, 6))
        y = rng.integers(0, 4, size=240)
        y[y == 3] = 0  # one absent class takes the constant-score path
        fits = {}
        with ProcessPoolBackend(max_workers=2) as pool:
            for name, backend in (("serial", "serial"), ("pool", pool)):
                model = OneVsRestForest(n_classes=4, n_trees=5, seed=4)
                fits[name] = model.fit(x, y, backend=backend)
            assert pool.pool_forks == 1
        assert _digest(fits["serial"].predict_proba(x)) == _digest(
            fits["pool"].predict_proba(x)
        )


class TestBackendConfig:
    def test_default_is_the_shared_pool_when_cpus_allow(self, monkeypatch):
        previous = executor.get_default_backend()
        try:
            for cpus, want in ((2, resolve_backend("process")), (1, None)):
                monkeypatch.setattr(executor, "usable_cpus", lambda: cpus)
                executor.set_default_backend(None)
                default = executor.get_default_backend()
                if want is None:
                    assert isinstance(default, SerialBackend)
                else:
                    assert default is want
        finally:
            executor.set_default_backend(previous)

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity"
    )
    def test_pinned_process_defaults_to_serial_and_forks_nothing(self):
        """Installed CPUs are not usable CPUs: a process pinned to one CPU
        gets the serial default, and a fit far above the inline threshold
        still forks no worker."""
        script = (
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import multiprocessing, numpy as np\n"
            "from repro.dataplat import executor\n"
            "from repro.dataplat.observability import get_metrics\n"
            "from repro.ml.forest import RandomForestClassifier\n"
            "assert executor.usable_cpus() == 1\n"
            "assert executor.get_default_backend().name == 'serial'\n"
            "x = np.random.default_rng(0).normal(size=(3000, 4))\n"
            "y = (x[:, 0] > 0).astype(float)\n"
            "assert 3000 * 30 > executor.INLINE_FIT_CELLS\n"
            "RandomForestClassifier(n_trees=30, max_depth=3).fit(x, y)\n"
            "forks = get_metrics().snapshot()['counters'].get("
            "'executor.pool_forks', 0)\n"
            "assert forks == 0, forks\n"
            "assert not multiprocessing.active_children()\n"
            "assert executor._shared_pool is None\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_resolve_accepts_strings_and_instances(self):
        assert resolve_backend("serial").parallelism == 1
        backend = SerialBackend()
        assert resolve_backend(backend) is backend


class TestTableCache:
    def test_hit_miss_counters(self):
        cache = TableCache(max_bytes=1000)
        assert cache.get("a") is None
        cache.put("a", "va", 10)
        assert cache.get("a") == "va"
        assert cache.health.cache_misses == 1
        assert cache.health.cache_hits == 1
        assert cache.health.cache_hit_rate == 0.5

    def test_lru_eviction_respects_budget(self):
        cache = TableCache(max_bytes=100)
        cache.put("a", 1, 40)
        cache.put("b", 2, 40)
        assert cache.get("a") == 1  # now most-recently used
        cache.put("c", 3, 40)  # evicts b, the LRU entry
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.current_bytes <= cache.max_bytes
        assert cache.health.cache_evictions == 1

    def test_oversized_entry_never_admitted(self):
        cache = TableCache(max_bytes=50)
        cache.put("big", 1, 51)
        assert "big" not in cache
        assert len(cache) == 0

    def test_put_replaces_stale_entry(self):
        cache = TableCache(max_bytes=100)
        cache.put("a", "old", 30)
        cache.put("a", "new", 60)
        assert cache.peek("a") == "new"
        assert cache.current_bytes == 60


class TestCatalogCache:
    @pytest.fixture
    def table(self):
        return Table.from_arrays(
            imsi=np.arange(50), balance=np.linspace(0, 1, 50)
        )

    def test_repeated_scan_hits(self, table):
        catalog = Catalog()
        catalog.save(table, "t")
        catalog.clear_cache()
        before = catalog.store.health.cache_hits
        catalog.load("t")  # cold: decode both column chunks, then cache
        catalog.load("t")  # warm
        catalog.load("t")
        # v2 caches per column chunk: 2 warm loads x 2 columns.
        assert catalog.store.health.cache_hits - before == 4
        assert catalog.store.health.cache_hit_rate > 0

    def test_overwrite_refreshes_cache(self, table):
        catalog = Catalog()
        catalog.save(table, "t")
        assert catalog.load("t") == table
        updated = table.with_column("balance", np.zeros(50))
        catalog.save(updated, "t")
        assert catalog.load("t") == updated

    def test_corruption_invalidates_cached_table(self, table):
        catalog = Catalog()
        catalog.save(table, "t")
        catalog.load("t")
        [path] = [
            p
            for p in catalog.store.list_files("/warehouse/default/t/__all__/")
            if p.rsplit("/", 1)[-1].startswith("imsi.")
        ]
        assert path in catalog.table_cache
        status = catalog.store.status(path)
        catalog.store.corrupt_block(path, 0, status.blocks[0].replicas[0])
        # The cached decode may predate the corruption; it must not mask it.
        assert path not in catalog.table_cache
        assert catalog.load("t") == table  # healthy replica heals the read

    def test_drop_evicts_cache(self, table):
        catalog = Catalog()
        catalog.save(table, "t")
        catalog.load("t")
        chunks = catalog.partition_files("t")
        catalog.drop("t")
        assert not any(path in catalog.table_cache for path in chunks)
        assert chunks  # the partition had backing files before the drop

    def test_store_does_not_keep_a_dropped_catalog_alive(self, table):
        store = BlockStore()
        catalog = Catalog(store)
        catalog.save(table, "t")
        ref = weakref.ref(catalog)
        gc.disable()  # freed by reference counting alone: no cycle
        try:
            del catalog
            assert ref() is None
        finally:
            gc.enable()
        survivor = Catalog(store)  # dead listener is skipped, then pruned
        survivor.save(table, "u")
        assert survivor.load("u") == table

    def test_pickled_catalog_invalidates_its_own_cache(self, table):
        catalog = Catalog()
        catalog.save(table, "t")
        copy = pickle.loads(pickle.dumps(catalog))
        copy.load("t")
        [path] = [
            p
            for p in copy.store.list_files("/warehouse/default/t/__all__/")
            if p.rsplit("/", 1)[-1].startswith("imsi.")
        ]
        assert path in copy.table_cache
        status = copy.store.status(path)
        copy.store.corrupt_block(path, 0, status.blocks[0].replicas[0])
        assert path not in copy.table_cache
        assert path in catalog.table_cache  # the original's store is untouched

    def test_temp_views_survive_clear_cache(self, table):
        catalog = Catalog()
        catalog.register_temp(table, "tv")
        catalog.clear_cache()
        assert catalog.load("tv") == table
