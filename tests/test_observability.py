"""Observability layer: spans, tracer, metrics, and platform integration.

Structure assertions go through the ``capture_spans`` fixture; the
integration classes drive real platform components (catalog, SQL engine,
wide-table builder, forest) and assert the spans/counters they are instrumented with.
"""

import numpy as np
import pytest

from repro.dataplat import observability
from repro.dataplat.blockstore import BlockStore
from repro.dataplat.catalog import Catalog
from repro.dataplat.executor import ProcessPoolBackend, SerialBackend
from repro.dataplat.observability import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    Span,
    Tracer,
    current_span,
    profiled,
    span,
    trace,
)
from repro.dataplat.sql import SQLEngine
from repro.dataplat.table import Table
from repro.errors import DataPlatformError
from repro.features import WideTableBuilder
from repro.ml.forest import RandomForestClassifier


class TestSpanBasics:
    def test_nesting(self, capture_spans):
        with span("outer", month=3):
            with span("inner"):
                pass
            with span("inner"):
                pass
        (outer,) = capture_spans.roots
        assert outer.name == "outer"
        assert outer.tags == {"month": 3}
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert capture_spans.names() == ["outer", "inner", "inner"]

    def test_timings_populated(self, capture_spans):
        with span("timed"):
            sum(range(1000))
        timed = capture_spans.assert_span("timed")
        assert timed.wall_s >= 0.0
        assert timed.cpu_s >= 0.0

    def test_counters_and_tags(self, capture_spans):
        with span("work") as sp:
            sp.incr("rows", 5)
            sp.incr("rows", 2)
            sp.set_tag("backend", "serial")
        work = capture_spans.assert_span("work", backend="serial")
        assert work.counters == {"rows": 7}

    def test_error_status(self, capture_spans):
        with pytest.raises(ValueError):
            with span("doomed"):
                raise ValueError("boom")
        assert capture_spans.assert_span("doomed").status == "error:ValueError"

    def test_current_span(self, capture_spans):
        assert current_span() is NULL_SPAN
        with span("ctx") as sp:
            assert current_span() is sp
        assert current_span() is NULL_SPAN

    def test_export_roundtrip(self, capture_spans):
        with span("root", k="v") as sp:
            sp.incr("n", 3)
            with span("child"):
                pass
        exported = capture_spans.tracer.export()
        rebuilt = Span.from_dict(exported[0])
        assert rebuilt.name == "root"
        assert rebuilt.tags == {"k": "v"}
        assert rebuilt.counters == {"n": 3}
        assert [c.name for c in rebuilt.children] == ["child"]

    def test_summary_aggregates_by_name(self, capture_spans):
        for _ in range(3):
            with span("stage"):
                pass
        summary = capture_spans.tracer.summary()
        assert summary["stage"]["count"] == 3

    def test_tracer_summary_is_its_roots_summaries_summed(self):
        tracer = Tracer()
        for _ in range(2):
            with tracer.span("round"):
                with tracer.span("stage"):
                    pass
                with tracer.span("stage"):
                    pass
        summary = tracer.summary()
        assert list(summary) == ["round", "stage"]
        assert {k: v["count"] for k, v in summary.items()} == {
            "round": 2,
            "stage": 4,
        }
        for name in summary:
            for field in ("wall_s", "cpu_s"):
                assert summary[name][field] == pytest.approx(
                    sum(r.summary()[name][field] for r in tracer.roots)
                )

    def test_attach_grafts_worker_spans(self, capture_spans):
        worker = Tracer()
        with worker.span("shard.execute", shard=0):
            pass
        with span("shard.query"):
            capture_spans.tracer.attach(worker.export())
        query = capture_spans.assert_span("shard.query")
        assert [c.name for c in query.children] == ["shard.execute"]
        assert query.children[0].tags == {"shard": 0}


class TestHooks:
    def test_span_is_noop_when_disabled(self):
        assert not observability.enabled()
        ctx = span("ignored")
        assert ctx is observability._NULL_CONTEXT
        with ctx as sp:
            assert sp is NULL_SPAN
            sp.incr("x")
            sp.set_tag("k", "v")
        assert NULL_SPAN.counters == {}
        assert NULL_SPAN.tags == {}

    def test_profiled_decorator(self, capture_spans):
        @profiled(kind="helper")
        def add(a, b):
            return a + b

        assert add(1, 2) == 3
        sp = capture_spans.assert_span(
            f"{self.test_profiled_decorator.__qualname__}.<locals>.add"
        )
        assert sp.tags == {"kind": "helper"}

    def test_profiled_explicit_name(self, capture_spans):
        @profiled("custom.name")
        def fn():
            return 1

        fn()
        capture_spans.assert_span("custom.name")

    def test_profiled_without_tracer(self):
        @profiled("quiet")
        def fn():
            return 41

        assert fn() == 41  # no tracer installed: plain call

    def test_trace_contextmanager_restores(self):
        assert observability.get_tracer() is None
        with trace() as tracer:
            assert observability.get_tracer() is tracer
            with span("run"), span("step"):
                pass
        assert observability.get_tracer() is None
        assert [s["name"] for s in tracer.export()] == ["run"]
        assert tracer.find("step")


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(4)
        assert registry.counter("x").value == 5
        with pytest.raises(DataPlatformError):
            registry.counter("x").inc(-1)

    def test_gauge(self):
        registry = MetricsRegistry()
        g = registry.gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7

    def test_histogram_buckets(self):
        h = Histogram("lat", boundaries=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        assert h.counts == [2, 1, 1]  # <=1.0, <=10.0, overflow
        assert h.total == 4
        assert sum(h.counts) == h.total
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx(106.5 / 4)

    def test_histogram_bad_boundaries(self):
        with pytest.raises(DataPlatformError):
            Histogram("bad", boundaries=())
        with pytest.raises(DataPlatformError):
            Histogram("bad", boundaries=(1.0, 1.0))

    def test_histogram_merge_requires_same_boundaries(self):
        a = Histogram("a", boundaries=(1.0,))
        b = Histogram("b", boundaries=(2.0,))
        with pytest.raises(DataPlatformError):
            a.merge(b)

    def test_registry_reregister_boundary_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=(1.0, 2.0))
        registry.histogram("h", boundaries=(1.0, 2.0))  # same: fine
        with pytest.raises(DataPlatformError):
            registry.histogram("h", boundaries=(3.0,))

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", boundaries=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["total"] == 1
        assert snap["histograms"]["h"]["min"] == 0.5

    def test_default_buckets_usable(self):
        h = Histogram("t", DEFAULT_BUCKETS)
        h.observe(0.02)
        assert sum(h.counts) == 1


class TestCacheCounters:
    def test_catalog_hit_and_miss(self, capture_spans):
        catalog = Catalog(BlockStore())
        catalog.save(
            Table.from_arrays(x=np.arange(8), y=np.arange(8) * 0.5), "tbl"
        )
        catalog.table_cache.clear()
        with span("first_read"):
            catalog.load("tbl")
        with span("second_read"):
            catalog.load("tbl")
        # v2 partitions cache per column chunk: one miss/hit per column.
        assert capture_spans.counter("table_cache.misses") == 2
        assert capture_spans.counter("table_cache.hits") == 2
        assert capture_spans.assert_span("first_read").counters.get(
            "cache_misses"
        ) == 2
        assert capture_spans.assert_span("second_read").counters.get(
            "cache_hits"
        ) == 2
        # The miss went to disk under a blockstore.read span.
        read = capture_spans.assert_span("blockstore.read")
        assert read.counters["bytes"] > 0
        assert capture_spans.counter("blockstore.bytes_read") > 0


class TestSQLSpans:
    def test_query_span_tree(self, capture_spans):
        engine = SQLEngine()
        engine.register(
            Table.from_arrays(x=np.arange(10), g=np.arange(10) % 3), "t"
        )
        out = engine.query("SELECT g, COUNT(*) AS n FROM t GROUP BY g")
        assert out.num_rows == 3
        query = capture_spans.assert_span("sql.query")
        assert query.counters["rows"] == 3
        child_names = [c.name for c in query.children]
        assert child_names == [
            "sql.parse", "sql.plan", "sql.bind", "sql.cbo", "sql.execute"
        ]
        # Operator spans nest under execute, mirroring the plan tree.
        execute = query.children[-1]
        ops = [s.name for s in execute.walk()]
        assert "sql.aggregate" in ops
        assert "sql.scan" in ops
        scan = capture_spans.assert_span("sql.scan")
        assert scan.tags["table"] == "t"
        assert scan.counters["rows"] == 10


class TestTrainingSpans:
    """The two training stages a Figure-6 window spends its time in."""

    @staticmethod
    def _fit_extractors(world):
        months = [4, 5]
        labels = {
            m: np.zeros(world.month(m).imsi.size, dtype=np.int64)
            for m in months
        }
        for m in months:
            labels[m][::7] = 1
        WideTableBuilder(world).fit_extractors(months, labels)

    @staticmethod
    def _assert_fit_children(capture_spans, fan_out=()):
        fit = capture_spans.assert_span("feature.fit_extractors")
        children = [c.name for c in fit.children]
        # A pool's own span comes first; the grafted worker spans follow.
        assert children[: len(fan_out)] == list(fan_out)
        children = children[len(fan_out):]
        assert children[:2] == ["topic.fit", "topic.fit"]
        assert children[-1] == "second_order.fit"
        for category in ("F7", "F8"):
            topic = capture_spans.assert_span("topic.fit", category=category)
            assert topic.tags["docs"] > 0 and topic.tags["vocab"] > 0
        return fit

    def test_fit_extractors_span_tree(self, capture_spans, tiny_world, use_backend):
        use_backend("serial")
        self._fit_extractors(tiny_world)
        fit = self._assert_fit_children(capture_spans)
        # Serial children run one after another inside the parent span.
        assert fit.wall_s >= sum(c.wall_s for c in fit.children) * 0.99

    def test_fit_extractors_span_tree_from_workers(
        self, capture_spans, tiny_world, use_backend
    ):
        with ProcessPoolBackend(max_workers=2) as pool:
            use_backend(pool)
            self._fit_extractors(tiny_world)
            assert pool.tasks_dispatched == 3
        # The three fits ran in workers and overlap in time, so only the
        # tree and its tags are asserted, not the wall-clock sum.
        self._assert_fit_children(capture_spans, fan_out=["executor.map"])
        assert capture_spans.assert_span("executor.map").tags["tasks"] == 3

    def test_forest_fit_span(self, capture_spans):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 9))
        y = (x[:, 0] + 0.3 * rng.normal(size=300) > 0).astype(np.float64)
        forest = RandomForestClassifier(n_trees=4, min_samples_leaf=5, seed=1)
        forest.fit(x, y)
        fit = capture_spans.assert_span("forest.fit", trees=4, rows=300, features=9)
        table = forest._table
        assert fit.counters["nodes"] == len(table.value)
        # √9 = 3 candidates per searched node; every internal node was searched.
        internal = int((table.child[0::2] != np.arange(len(table.value))).sum())
        assert fit.counters["split_candidates"] % 3 == 0
        assert fit.counters["split_candidates"] >= 3 * internal
        assert 0 <= fit.counters["presort_s"] <= fit.wall_s

    def test_forest_fit_span_counts_process_workers(self, capture_spans):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 4))
        y = (x[:, 1] > 0).astype(np.float64)
        counters = []
        for backend in (SerialBackend(), ProcessPoolBackend(max_workers=2)):
            RandomForestClassifier(n_trees=4, seed=3).fit(x, y, backend=backend)
            counters.append(capture_spans.find("forest.fit")[-1].counters)
        for name in ("nodes", "split_candidates"):
            assert counters[0][name] == counters[1][name] > 0
