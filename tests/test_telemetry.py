"""Tests for the telemetry warehouse and per-run sink."""

import json

import numpy as np
import pytest

from repro.core.monitoring import ModelMonitor
from repro.dataplat import observability
from repro.dataplat.catalog import Catalog
from repro.dataplat.resilience import PipelineHealthReport
from repro.dataplat.sql import SQLEngine
from repro.dataplat.telemetry import (
    TELEMETRY_DATABASE,
    TELEMETRY_SCHEMAS,
    TelemetrySink,
    TelemetryWarehouse,
    current_git_sha,
)
from repro.errors import DataPlatformError


def _span_tree():
    tracer = observability.Tracer()
    with tracer.span("pipeline.window", test_month=5):
        with tracer.span("features.build"):
            pass
        with tracer.span("predictor.fit"):
            pass
    return tracer.roots


def _report(rng, shift=0.0):
    monitor = ModelMonitor(
        ["a", "b"],
        rng.normal(size=(400, 2)),
        reference_churn_rate=0.05,
        reference_label="m4",
    )
    return monitor.compare(
        rng.normal(shift, 1, size=(400, 2)),
        current_churn_rate=0.06,
        current_label="m5",
    )


class TestWarehouse:
    def test_schemas_are_stable(self):
        assert set(TELEMETRY_SCHEMAS) == {
            "spans", "metrics", "drift", "health", "alerts"
        }
        for schema in TELEMETRY_SCHEMAS.values():
            assert schema.names[:3] == ("run_id", "window", "git_sha")

    def test_spans_flattened_with_parent_links(self):
        wh = TelemetryWarehouse(git_sha="sha")
        n = wh.record_spans("r1", 5, _span_tree())
        assert n == 3
        table = wh.query(
            "SELECT span_id, parent_id, depth, name FROM __telemetry.spans "
            "ORDER BY span_id"
        )
        rows = list(table.rows())
        assert rows[0][1] == -1 and rows[0][3] == "pipeline.window"
        # Children link back to the root's pre-order id.
        assert all(r[1] == 0 and r[2] == 1 for r in rows[1:])

    def test_metrics_rows_and_histogram_buckets(self):
        wh = TelemetryWarehouse(git_sha="sha")
        registry = observability.MetricsRegistry()
        registry.counter("jobs").inc(3)
        registry.gauge("auc").set(0.9)
        registry.histogram("lat", boundaries=(1.0, 2.0)).observe(1.5)
        wh.record_metrics("r1", 5, registry.snapshot())
        kinds = {
            row[0]
            for row in wh.query("SELECT kind FROM metrics").rows()
        }
        assert kinds == {"counter", "gauge", "hist_bucket", "hist_count", "hist_sum"}
        buckets = list(
            wh.query(
                "SELECT bucket, value FROM metrics WHERE kind = 'hist_bucket' "
                "ORDER BY bucket"
            ).rows()
        )
        assert [b for b, _ in buckets] == ["+inf", "1.0", "2.0"]
        assert [v for _, v in buckets] == [0.0, 0.0, 1.0]

    def test_drift_rows_and_churn_rate_gauges(self, rng):
        wh = TelemetryWarehouse(git_sha="sha")
        wh.record_drift("r1", 5, _report(rng, shift=2.0))
        rows = list(
            wh.query("SELECT name, level FROM drift ORDER BY name").rows()
        )
        assert [r[0] for r in rows] == ["a", "b"]
        assert all(level == "ALERT" for _, level in rows)
        gauges = dict(
            wh.query("SELECT name, value FROM metrics WHERE kind = 'gauge'").rows()
        )
        assert gauges["monitor.churn_rate_reference"] == pytest.approx(0.05)
        assert gauges["monitor.churn_rate_current"] == pytest.approx(0.06)

    def test_health_row(self):
        wh = TelemetryWarehouse(git_sha="sha")
        health = PipelineHealthReport(families_used=["F1", "F3"])
        health.drop_family("F5", "unreadable")
        health.quarantined_rows = 7
        wh.record_health("r1", 5, health)
        row = next(
            wh.query(
                "SELECT status, degraded, families_dropped, quarantined_rows "
                "FROM health"
            ).rows()
        )
        assert row[0] == "degraded(F5)"
        assert bool(row[1]) is True
        assert row[2] == "F5"
        assert row[3] == 7

    def test_same_window_appends_not_overwrites(self):
        wh = TelemetryWarehouse(git_sha="sha")
        wh.record_metrics("r1", 5, {"gauges": {"a": 1.0}})
        wh.record_metrics("r1", 5, {"gauges": {"b": 2.0}})
        names = {
            row[0] for row in wh.query("SELECT name FROM metrics").rows()
        }
        assert names == {"a", "b"}

    def test_rows_keyed_by_run_window_sha(self):
        wh = TelemetryWarehouse(git_sha="abc")
        wh.record_metrics("r1", 5, {"counters": {"x": 1.0}})
        row = next(
            wh.query("SELECT run_id, window, git_sha FROM metrics").rows()
        )
        assert tuple(row) == ("r1", 5, "abc")

    def test_shared_catalog_keeps_telemetry_separate(self):
        catalog = Catalog()
        wh = TelemetryWarehouse(catalog=catalog, git_sha="sha")
        wh.record_metrics("r1", 5, {"gauges": {"a": 1.0}})
        assert "metrics" not in catalog.tables("default")
        assert "metrics" in catalog.tables(TELEMETRY_DATABASE)
        # Another engine over the same catalog reaches telemetry by
        # qualified name.
        other = SQLEngine(catalog)
        assert other.query("SELECT * FROM __telemetry.metrics").num_rows == 1

    def test_run_id_validation(self):
        wh = TelemetryWarehouse(git_sha="sha")
        for bad in ("a/b", "a=b"):
            with pytest.raises(DataPlatformError):
                wh.record_metrics(bad, 1, {"gauges": {"a": 1.0}})
            # The sink fails fast at construction, not on first write.
            with pytest.raises(DataPlatformError):
                TelemetrySink(wh, bad)

    def test_runs_and_windows(self):
        wh = TelemetryWarehouse(git_sha="sha")
        wh.record_metrics("r2", 6, {"gauges": {"a": 1.0}})
        wh.record_metrics("r1", 5, {"gauges": {"a": 1.0}})
        wh.record_metrics("r1", 7, {"gauges": {"a": 1.0}})
        assert wh.runs() == ["r1", "r2"]
        assert wh.windows("r1") == [5, 7]

    def test_compact_drops_oldest_runs(self):
        wh = TelemetryWarehouse(git_sha="sha")
        for run in ("r1", "r2", "r3"):
            wh.record_metrics(run, 1, {"gauges": {"a": 1.0}})
        assert wh.compact(keep_runs=2) == ["r1"]
        assert wh.runs() == ["r2", "r3"]
        runs_left = {
            row[0] for row in wh.query("SELECT run_id FROM metrics").rows()
        }
        assert runs_left == {"r2", "r3"}

    def test_compact_last_partition_drops_table(self):
        wh = TelemetryWarehouse(git_sha="sha")
        wh.record_metrics("r1", 1, {"gauges": {"a": 1.0}})
        wh.compact(keep_runs=1)  # r1 is the newest: nothing dropped
        assert wh.tables() == ["metrics"]
        wh.record_metrics("r2", 1, {"gauges": {"a": 1.0}})
        wh.compact(keep_runs=1)
        assert wh.runs() == ["r2"]

    def test_dump_and_load_roundtrip(self, rng, tmp_path):
        wh = TelemetryWarehouse(git_sha="sha")
        wh.record_spans("r1", 5, _span_tree())
        wh.record_drift("r1", 5, _report(rng))
        wh.record_health("r1", 5, PipelineHealthReport(families_used=["F1"]))
        path = tmp_path / "telemetry.json"
        total = wh.dump(path)
        assert total > 0
        reloaded = TelemetryWarehouse.load_dump(path)
        assert reloaded.runs() == ["r1"]
        assert sorted(reloaded.tables()) == sorted(wh.tables())
        for name in wh.tables():
            original = list(
                wh.query(f"SELECT * FROM {name}").rows()
            )
            copied = list(reloaded.query(f"SELECT * FROM {name}").rows())
            assert len(original) == len(copied)

    def test_load_dump_rejects_schema_mismatch(self, tmp_path):
        payload = {
            "version": 1,
            "tables": {"metrics": {"columns": ["bogus"], "rows": []}},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataPlatformError):
            TelemetryWarehouse.load_dump(path)

    def test_load_dump_rejects_retired_query_profiles(self, tmp_path):
        # Dumps written while the warehouse still kept per-operator query
        # profiles name a table the schema no longer has; loading one
        # fails on that table instead of dropping it silently.
        columns = [
            "run_id", "window", "git_sha", "fingerprint", "profile_id",
            "sql", "op_id", "operator", "actual_rows", "wall_s",
        ]
        row = ["r1", 0, "sha", "deadbeef01234567", 0, "SELECT 1", 0,
               "Scan", 7, 0.001]
        payload = {
            "version": 1,
            "tables": {
                "metrics": {
                    "columns": list(TELEMETRY_SCHEMAS["metrics"].names),
                    "rows": [],
                },
                "query_profiles": {"columns": columns, "rows": [row]},
            },
        }
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataPlatformError, match="'query_profiles'"):
            TelemetryWarehouse.load_dump(path)

    def test_git_sha_stamped(self):
        sha = current_git_sha()
        assert isinstance(sha, str) and sha
        wh = TelemetryWarehouse()
        assert wh.git_sha == sha


class TestDropPartition:
    def test_drop_partition_removes_rows_and_file(self):
        from repro.dataplat.table import Table

        catalog = Catalog()
        t = Table.from_arrays(x=np.arange(3))
        catalog.save(t, "t", partition="p=1")
        catalog.save(t, "t", partition="p=2")
        catalog.drop_partition("t", "p=1")
        assert catalog.partitions("t") == ["p=2"]
        assert catalog.load("t").num_rows == 3

    def test_dropping_last_partition_removes_table(self):
        from repro.dataplat.table import Table

        catalog = Catalog()
        catalog.save(Table.from_arrays(x=np.arange(3)), "t", partition="p=1")
        catalog.drop_partition("t", "p=1")
        assert "t" not in catalog.tables("default")


class TestSink:
    def test_metric_deltas_are_exact_per_window(self):
        wh = TelemetryWarehouse(git_sha="sha")
        registry = observability.MetricsRegistry()
        sink = TelemetrySink(wh, "r1", metrics=registry)
        registry.counter("jobs").inc(2)
        registry.histogram("lat", boundaries=(1.0,)).observe(0.5)
        sink.record_window(5)
        registry.counter("jobs").inc(3)
        registry.histogram("lat", boundaries=(1.0,)).observe(0.7)
        registry.histogram("lat", boundaries=(1.0,)).observe(2.0)
        sink.record_window(6)
        counters = dict(
            wh.query(
                "SELECT window, value FROM metrics "
                "WHERE kind = 'counter' AND name = 'jobs'"
            ).rows()
        )
        assert counters == {5: 2.0, 6: 3.0}
        totals = dict(
            wh.query(
                "SELECT window, value FROM metrics "
                "WHERE kind = 'hist_count' AND name = 'lat'"
            ).rows()
        )
        assert totals == {5: 1.0, 6: 2.0}

    def test_sink_suspends_tracer(self):
        wh = TelemetryWarehouse(git_sha="sha")
        sink = TelemetrySink(wh, "r1", metrics=observability.MetricsRegistry())
        tracer = observability.Tracer()
        previous = observability.set_tracer(tracer)
        try:
            sink.record_window(5, spans=_span_tree())
        finally:
            observability.set_tracer(previous)
        # Recording produced no spans of its own.
        assert tracer.roots == []

    def test_acceptance_two_windows_queryable(self, rng):
        """ISSUE acceptance: two windows, SELECT returns rows for both."""
        wh = TelemetryWarehouse(git_sha="sha")
        registry = observability.MetricsRegistry()
        sink = TelemetrySink(wh, "run-0001", metrics=registry)
        for window, shift in ((5, 0.0), (6, 2.0)):
            registry.counter("pipeline.windows").inc()
            sink.record_window(window)
            wh.record_drift("run-0001", window, _report(rng, shift=shift))
        metric_windows = sorted(
            row[0]
            for row in wh.query(
                "SELECT window FROM __telemetry.metrics "
                "WHERE run_id = 'run-0001' GROUP BY window"
            ).rows()
        )
        drift_windows = sorted(
            row[0]
            for row in wh.query(
                "SELECT window FROM __telemetry.drift "
                "WHERE run_id = 'run-0001' GROUP BY window"
            ).rows()
        )
        assert metric_windows == [5, 6]
        assert drift_windows == [5, 6]
