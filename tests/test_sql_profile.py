"""EXPLAIN ANALYZE, query profiles, and the cardinality feedback loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.watchtower import Watchtower, query_profile_rules
from repro.dataplat.catalog import Catalog
from repro.dataplat.sql import (
    CardinalityFeedback,
    QueryProfile,
    SQLEngine,
    fingerprint,
)
from repro.dataplat.sql.ast_nodes import ExplainStatement
from repro.dataplat.sql.feedback import (
    CORRECTION_CLAMP,
    expr_shape,
    node_signature,
)
from repro.dataplat.sql.parser import parse
from repro.dataplat.sql.plan import Filter, Join, Project, Scan, Sort
from repro.dataplat.sql.profile import OperatorProfile, normalize_sql
from repro.dataplat.table import Table
from repro.dataplat.telemetry import TelemetrySink, TelemetryWarehouse


def make_tables(n: int = 400) -> dict[str, Table]:
    rng = np.random.default_rng(17)
    # Power-law values: the uniform-selectivity estimate for ``v < 5`` is
    # badly wrong, which is exactly what the feedback loop should fix.
    v = np.floor(100 * rng.random(n) ** 3).astype(np.int64)
    t = Table.from_arrays(
        id=np.arange(n, dtype=np.int64),
        v=v,
        grp=(np.arange(n) % 7).astype(np.int64),
    )
    u = Table.from_arrays(
        grp=np.arange(7, dtype=np.int64),
        name=np.array([f"g{i}" for i in range(7)], dtype=object),
    )
    return {"t": t, "u": u}


def make_engine(**kwargs) -> SQLEngine:
    engine = SQLEngine(**kwargs)
    for name, table in make_tables().items():
        engine.register(table, name)
    return engine


QUERY = (
    "SELECT u.name, COUNT(*) AS n FROM t JOIN u ON t.grp = u.grp "
    "WHERE t.v < 5 GROUP BY u.name"
)


class TestParser:
    def test_explain_analyze_flag(self):
        stmt = parse("EXPLAIN ANALYZE SELECT * FROM t")
        assert isinstance(stmt, ExplainStatement)
        assert stmt.analyze is True

    def test_plain_explain_has_no_analyze(self):
        stmt = parse("EXPLAIN SELECT * FROM t")
        assert isinstance(stmt, ExplainStatement)
        assert stmt.analyze is False

    def test_analyze_requires_explain(self):
        from repro.errors import SQLError

        with pytest.raises(SQLError):
            parse("ANALYZE SELECT * FROM t")

    def test_fingerprint_ignores_explain_prefix_and_whitespace(self):
        base = fingerprint(QUERY)
        assert fingerprint(f"EXPLAIN ANALYZE {QUERY}") == base
        assert fingerprint(f"explain   analyze\n {QUERY} ;") == base
        assert normalize_sql(f"EXPLAIN  {QUERY};") == QUERY
        assert fingerprint("SELECT 1 FROM t") != base


class TestExplainAnalyze:
    def test_every_operator_line_is_annotated(self):
        engine = make_engine()
        out = engine.query(f"EXPLAIN ANALYZE {QUERY}")
        lines = [str(v) for v in out["plan"]]
        plain = [str(v) for v in engine.query(f"EXPLAIN {QUERY}")["plan"]]
        assert len(lines) == len(plain)
        for line in lines:
            assert "actual_rows=" in line and "est_rows=" in line
            assert "wall_ms=" in line and "bytes_decoded=" in line

    def test_actual_rows_match_execution(self):
        engine = make_engine()
        expected = engine.query(QUERY)
        out = engine.query(f"EXPLAIN ANALYZE {QUERY}")
        root_line = str(out["plan"][0])
        assert f"actual_rows={expected.num_rows}" in root_line

    def test_plain_explain_unchanged(self):
        engine = make_engine()
        out = engine.query(f"EXPLAIN {QUERY}")
        assert not any("actual_rows" in str(v) for v in out["plan"])

    def test_analyze_shares_fingerprint_with_plain_run(self):
        engine = make_engine(profiling=True)
        engine.query(QUERY)
        plain_fp = engine.last_profile.fingerprint
        engine.query(f"EXPLAIN ANALYZE {QUERY}")
        assert engine.last_profile.fingerprint == plain_fp


class TestProfileCollection:
    def test_profiling_is_semantically_invisible(self):
        plain = make_engine()
        profiled = make_engine(profiling=True)
        for sql in (QUERY, "SELECT v FROM t WHERE v > 50 ORDER BY v"):
            a = sorted(map(tuple, plain.query(sql).rows()))
            b = sorted(map(tuple, profiled.query(sql).rows()))
            assert a == b

    def test_profile_structure_preorder(self):
        engine = make_engine(profiling=True)
        out = engine.query(QUERY)
        profile = engine.last_profile
        assert profile is not None
        ops = profile.operators
        assert [op.op_id for op in ops] == list(range(len(ops)))
        assert ops[0].parent_id == -1 and ops[0].depth == 0
        by_id = {op.op_id: op for op in ops}
        for op in ops[1:]:
            parent = by_id[op.parent_id]
            assert op.depth == parent.depth + 1
            assert op.op_id > parent.op_id  # pre-order: parent first
        assert ops[0].actual_rows == out.num_rows
        assert profile.wall_s == ops[0].wall_s >= 0.0

    def test_estimates_recorded_per_operator(self):
        engine = make_engine(profiling=True)
        engine.query(QUERY)
        ops = engine.last_profile.operators
        keyed = [op for op in ops if op.rel]
        assert keyed, "no keyed operators recorded"
        for op in keyed:
            assert op.est_rows >= 0 and op.est_rows_raw >= 0
            assert op.q_error >= 1.0
        # Pass-through operators report no q-error (they would only
        # duplicate their child's).
        for op in ops:
            if not op.rel:
                assert op.q_error == 0.0

    def test_storage_counters_attributed_to_scans(self):
        catalog = Catalog(cache_bytes=0)  # every read decodes
        tables = make_tables()
        for name, table in tables.items():
            catalog.save(table, name)
        engine = SQLEngine(catalog, profiling=True)
        engine.query(QUERY)
        ops = engine.last_profile.operators
        scans = [op for op in ops if op.operator == "Scan"]
        others = [op for op in ops if op.operator != "Scan"]
        assert scans
        assert sum(op.bytes_decoded + op.cache_hits for op in scans) > 0
        # Exclusive attribution: non-scan operators touch no storage.
        assert all(
            op.bytes_decoded == 0 and op.cache_misses == 0 for op in others
        )

    def test_profile_sink_called_per_query(self):
        seen = []
        engine = make_engine(profile_sink=seen.append)
        engine.query(QUERY)
        engine.query("SELECT COUNT(*) AS n FROM u")
        assert len(seen) == 2
        assert all(isinstance(p, QueryProfile) for p in seen)
        assert seen[0].fingerprint == fingerprint(QUERY)

    def test_env_flag_enables_profiling(self, monkeypatch):
        monkeypatch.setenv("REPRO_SQL_PROFILE", "1")
        engine = make_engine()
        engine.query(QUERY)
        assert engine.last_profile is not None
        monkeypatch.delenv("REPRO_SQL_PROFILE")
        bare = make_engine(feedback=False)
        bare.query(QUERY)
        assert bare.last_profile is None

    def test_profiling_off_records_nothing(self):
        engine = make_engine(profiling=False, feedback=False)
        engine.query(QUERY)
        assert engine.last_profile is None


class TestFeedbackKeys:
    def test_shapes_abstract_literals(self):
        def shape_of(sql: str) -> str:
            stmt = parse(sql)
            return expr_shape(stmt.where)

        assert shape_of("SELECT a FROM t WHERE k = 'promo'") == shape_of(
            "SELECT a FROM t WHERE k = 'std'"
        )
        assert shape_of("SELECT a FROM t WHERE v < 5") == shape_of(
            "SELECT a FROM t WHERE v < 99"
        )
        assert shape_of("SELECT a FROM t WHERE v < 5") != shape_of(
            "SELECT a FROM t WHERE v > 5"
        )

    def test_and_conjuncts_are_order_insensitive(self):
        a = parse("SELECT a FROM t WHERE x = 1 AND y = 2").where
        b = parse("SELECT a FROM t WHERE y = 9 AND x = 3").where
        assert expr_shape(a) == expr_shape(b)

    def test_shape_drops_table_alias(self):
        a = parse("SELECT a FROM t q WHERE q.v < 5").where
        b = parse("SELECT a FROM t WHERE v < 5").where
        assert expr_shape(a) == expr_shape(b)

    def test_only_estimated_nodes_get_keys(self):
        engine = make_engine()
        plan = engine.plan(QUERY)

        keyed, unkeyed = [], []

        def visit(node):
            (keyed if node_signature(node) else unkeyed).append(node)
            for child in node.children():
                visit(child)

        visit(plan)
        assert all(
            isinstance(n, (Scan, Filter, Join)) or type(n).__name__ == "Aggregate"
            for n in keyed
        )
        assert all(
            isinstance(n, (Project, Sort)) or node_signature(n) is None
            for n in unkeyed
        )

    def test_key_invariant_under_join_order(self):
        engine = make_engine()
        written = (
            "SELECT COUNT(*) AS n FROM t JOIN u ON t.grp = u.grp "
            "WHERE t.v < 5"
        )
        swapped = (
            "SELECT COUNT(*) AS n FROM u JOIN t ON t.grp = u.grp "
            "WHERE t.v < 5"
        )

        def top_join_key(plan):
            stack = [plan]
            while stack:
                node = stack.pop()
                if isinstance(node, Join):
                    return node_signature(node)
                stack.extend(node.children())
            return None

        key = top_join_key(engine.plan(written))
        assert key is not None
        assert key == top_join_key(engine.plan(swapped))


class TestFeedbackStore:
    def test_correction_is_geometric_mean_of_ratios(self):
        fb = CardinalityFeedback()
        fb.observe("t", "scan|", 9.0, 99.0)  # ratio 10
        fb.observe("t", "scan|", 9.0, 999.0)  # ratio 100
        assert fb.correction_for("t", "scan|") == pytest.approx(
            (10.0 * 100.0) ** 0.5
        )
        assert fb.correction_for("t", "other") == 1.0
        assert len(fb) == 1

    def test_correction_clamped(self):
        fb = CardinalityFeedback()
        fb.observe("t", "s", 0.0, 10_000_000.0)
        assert fb.correction_for("t", "s") == CORRECTION_CLAMP
        fb2 = CardinalityFeedback()
        fb2.observe("t", "s", 10_000_000.0, 0.0)
        assert fb2.correction_for("t", "s") == 1.0 / CORRECTION_CLAMP

    def test_negative_estimates_ignored(self):
        fb = CardinalityFeedback()
        fb.observe("t", "s", -1.0, 10.0)
        fb.observe("t", "s", 10.0, -1.0)
        assert len(fb) == 0

    def test_ingest_uses_raw_estimates(self):
        op = OperatorProfile(
            op_id=0, parent_id=-1, depth=0, operator="Scan", label="Scan t",
            rel="t", shape="scan|", est_rows=50.0, est_rows_raw=9.0,
            actual_rows=99,
        )
        profile = QueryProfile(fingerprint="f", sql="q", operators=[op])
        fb = CardinalityFeedback()
        assert fb.ingest(profile) == 1
        # Learned against est_rows_raw (9), not the corrected est (50).
        assert fb.correction_for("t", "scan|") == pytest.approx(10.0)

    def test_mean_q_error_strictly_drops_across_runs(self):
        engine = make_engine(feedback=True)
        engine.query(QUERY)
        first = engine.last_profile.mean_q_error()
        engine.query(QUERY)
        second = engine.last_profile.mean_q_error()
        assert first > 1.0, "world not skewed enough to misestimate"
        assert second < first
        assert second == pytest.approx(1.0, abs=0.5)

    def test_feedback_corrects_bound_estimates(self):
        engine = make_engine(feedback=True)
        engine.query(QUERY)
        profile = engine.last_profile
        plan = engine.plan(QUERY)

        def collect(node, out):
            out.append(node)
            for child in node.children():
                collect(child, out)

        nodes = []
        collect(plan, nodes)
        actual_by_key = {
            (op.rel, op.shape): op.actual_rows
            for op in profile.operators
            if op.rel
        }
        checked = 0
        for node in nodes:
            key = node_signature(node)
            if key is None or key not in actual_by_key:
                continue
            actual = actual_by_key[key]
            raw_err = abs(node.est_rows_raw - actual)
            corrected_err = abs(node.est_rows - actual)
            assert corrected_err <= raw_err + 1e-9
            checked += 1
        assert checked > 0

    def test_shared_store_across_engines(self):
        fb = CardinalityFeedback()
        learner = make_engine(feedback=fb)
        learner.query(QUERY)
        assert len(fb) > 0
        reader = make_engine(feedback=fb)
        reader.query(QUERY)
        assert reader.last_profile.mean_q_error() == pytest.approx(
            1.0, abs=0.5
        )

    def test_env_flag_enables_feedback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CBO_FEEDBACK", "1")
        engine = make_engine()
        assert isinstance(engine.feedback, CardinalityFeedback)
        monkeypatch.delenv("REPRO_CBO_FEEDBACK")
        assert make_engine().feedback is None

    def test_from_warehouse_roundtrip(self):
        wh = TelemetryWarehouse(git_sha="sha")
        engine = make_engine(feedback=True)
        engine.query(QUERY)
        wh.record_query_profile("r1", 0, engine.last_profile)
        rebuilt = CardinalityFeedback.from_warehouse(wh, run_id="r1")
        assert rebuilt.observations() == engine.feedback.observations()
        for key in rebuilt.observations():
            assert rebuilt.correction_for(*key) == pytest.approx(
                engine.feedback.correction_for(*key)
            )
        assert len(CardinalityFeedback.from_warehouse(wh, run_id="nope")) == 0


class TestWarehousePersistence:
    def _profile(self) -> QueryProfile:
        engine = make_engine(profiling=True)
        engine.query(QUERY)
        return engine.last_profile

    def test_rows_queryable_by_sql(self):
        wh = TelemetryWarehouse(git_sha="sha")
        profile = self._profile()
        n = wh.record_query_profile("r1", 3, profile)
        assert n == len(profile.operators)
        rows = list(
            wh.query(
                "SELECT op_id, operator, actual_rows FROM "
                "__telemetry.query_profiles WHERE run_id = 'r1' "
                "ORDER BY op_id"
            ).rows()
        )
        assert len(rows) == len(profile.operators)
        assert [r[0] for r in rows] == [op.op_id for op in profile.operators]
        assert [r[2] for r in rows] == [
            op.actual_rows for op in profile.operators
        ]

    def test_repeated_statement_keeps_profiles_separate(self):
        wh = TelemetryWarehouse(git_sha="sha")
        profile = self._profile()
        wh.record_query_profile("r1", 1, profile)
        wh.record_query_profile("r1", 1, profile)
        ids = sorted(
            {
                row[0]
                for row in wh.query(
                    "SELECT profile_id FROM query_profiles"
                ).rows()
            }
        )
        assert ids == [0, 1]
        per_profile = dict(
            wh.query(
                "SELECT profile_id, COUNT(*) AS n FROM query_profiles "
                "GROUP BY profile_id"
            ).rows()
        )
        assert per_profile == {0: len(profile.operators), 1: len(profile.operators)}

    def test_profile_seq_continues_after_load_dump(self, tmp_path):
        wh = TelemetryWarehouse(git_sha="sha")
        wh.record_query_profile("r1", 1, self._profile())
        path = tmp_path / "telemetry.json"
        wh.dump(path)
        reloaded = TelemetryWarehouse.load_dump(path)
        reloaded.record_query_profile("r1", 1, self._profile())
        ids = sorted(
            {
                row[0]
                for row in reloaded.query(
                    "SELECT profile_id FROM query_profiles"
                ).rows()
            }
        )
        assert ids == [0, 1]

    def test_dump_and_load_roundtrip(self, tmp_path):
        wh = TelemetryWarehouse(git_sha="sha")
        wh.record_query_profile("r1", 0, self._profile())
        path = tmp_path / "telemetry.json"
        wh.dump(path)
        reloaded = TelemetryWarehouse.load_dump(path)
        original = sorted(
            map(tuple, wh.query("SELECT * FROM query_profiles").rows())
        )
        copied = sorted(
            map(tuple, reloaded.query("SELECT * FROM query_profiles").rows())
        )
        assert original == copied

    def test_sink_records_profiles_and_gauges(self):
        wh = TelemetryWarehouse(git_sha="sha")
        sink = TelemetrySink(wh, "r9")
        sink.record_query_profile(self._profile(), window=4)
        sink.record_gauges(5, {"serve.latency_p99_s": 0.012})
        fp_rows = list(
            wh.query(
                "SELECT window, fingerprint FROM query_profiles "
                "WHERE run_id = 'r9' GROUP BY window, fingerprint"
            ).rows()
        )
        assert fp_rows == [(4, fingerprint(QUERY))]
        gauge = next(
            wh.query(
                "SELECT window, name, value FROM metrics "
                "WHERE run_id = 'r9' AND kind = 'gauge'"
            ).rows()
        )
        assert tuple(gauge) == (5, "serve.latency_p99_s", 0.012)

    def test_engine_sink_wiring_end_to_end(self):
        wh = TelemetryWarehouse(git_sha="sha")
        sink = TelemetrySink(wh, "r2")
        engine = make_engine(profile_sink=sink.record_query_profile)
        engine.query(QUERY)
        count = next(
            wh.query(
                "SELECT COUNT(*) AS n FROM __telemetry.query_profiles"
            ).rows()
        )[0]
        assert count == len(engine.last_profile.operators)


class TestWatchtowerRules:
    def _op(self, **overrides) -> OperatorProfile:
        base = dict(
            op_id=0, parent_id=-1, depth=0, operator="Aggregate",
            label="Aggregate", rel="t", shape="aggregate|a:g",
            est_rows=10.0, est_rows_raw=10.0, actual_rows=12,
            wall_s=0.010, cpu_s=0.010,
        )
        base.update(overrides)
        return OperatorProfile(**base)

    def _record(self, wh, run_id, window, **overrides):
        profile = QueryProfile(
            fingerprint="f" * 16, sql="SELECT 1", operators=[self._op(**overrides)]
        )
        wh.record_query_profile(run_id, window, profile)

    def test_estimate_misfire_fires_above_threshold(self):
        wh = TelemetryWarehouse(git_sha="sha")
        self._record(wh, "r1", 1, est_rows=1.0, actual_rows=10_000)
        tower = Watchtower(wh, query_profile_rules(max_q_error=100.0))
        alerts = tower.evaluate("r1", 1)
        assert [a.rule for a in alerts] == ["query-estimate-misfire"]
        assert alerts[0].severity == "warn"

    def test_estimate_misfire_quiet_when_accurate(self):
        wh = TelemetryWarehouse(git_sha="sha")
        self._record(wh, "r1", 1)
        tower = Watchtower(wh, query_profile_rules())
        assert tower.evaluate("r1", 1) == []

    def test_wall_regression_compares_fingerprint_across_runs(self):
        wh = TelemetryWarehouse(git_sha="sha")
        self._record(wh, "run-001", 1, wall_s=0.010)
        self._record(wh, "run-002", 1, wall_s=0.050)
        tower = Watchtower(wh, query_profile_rules(wall_regression=2.0))
        # The earliest run has no predecessor to regress against.
        assert tower.evaluate("run-001", 1) == []
        alerts = tower.evaluate("run-002", 1)
        assert [a.rule for a in alerts] == ["query-wall-regression"]
        assert alerts[0].value == pytest.approx(5.0)

    def test_wall_regression_quiet_when_stable(self):
        wh = TelemetryWarehouse(git_sha="sha")
        self._record(wh, "run-001", 1, wall_s=0.010)
        self._record(wh, "run-002", 1, wall_s=0.011)
        tower = Watchtower(wh, query_profile_rules())
        assert tower.evaluate("run-002", 1) == []


class TestServeTelemetry:
    def _service(self):
        from repro.features.spec import FeatureMatrix
        from repro.ml.forest import RandomForestClassifier
        from repro.serve import (
            FeatureStore,
            FixedServiceTime,
            ModelRegistry,
            ScoringService,
            ServeConfig,
        )

        rng = np.random.default_rng(3)
        n, k = 120, 4
        matrix = FeatureMatrix(
            imsi=np.arange(50_000, 50_000 + n, dtype=np.int64),
            names=[f"f{i}" for i in range(k)],
            values=rng.normal(size=(n, k)),
        )
        y = (matrix.values[:, 0] > 0).astype(np.int64)
        model = RandomForestClassifier(
            n_trees=3, max_depth=4, min_samples_leaf=5, seed=1
        ).fit(matrix.values, y)
        store = FeatureStore(cache_rows=32)
        store.materialize(matrix, "m3", buckets=2)
        registry = ModelRegistry()
        registry.publish("v1", model, activate=True)
        service = ScoringService(
            store,
            registry,
            ServeConfig(
                max_batch=4,
                batch_window_s=0.010,
                max_queue_depth=16,
                default_deadline_s=1.0,
            ),
            service_time=FixedServiceTime(base_s=0.002, per_row_s=0.0001),
        )
        return service, matrix

    def test_attach_telemetry_flushes_slo_gauges(self):
        service, matrix = self._service()
        wh = TelemetryWarehouse(git_sha="sha")
        sink = TelemetrySink(wh, "serve-run")
        service.attach_telemetry(sink, interval_s=0.050)
        for i in range(6):
            service.submit(int(matrix.imsi[i]), now=0.010 * i)
        service.poll(0.120)
        rows = list(
            wh.query(
                "SELECT window, name, value FROM __telemetry.metrics "
                "WHERE run_id = 'serve-run' AND kind = 'gauge' "
                "ORDER BY window, name"
            ).rows()
        )
        assert rows, "no telemetry flushed"
        names = {r[1] for r in rows}
        assert "serve.latency_p99_s" in names
        assert "serve.shed_rate" in names
        windows = sorted({r[0] for r in rows})
        assert windows == list(range(len(windows)))  # consecutive windows

    def test_flush_catches_up_without_storm(self):
        service, matrix = self._service()
        wh = TelemetryWarehouse(git_sha="sha")
        sink = TelemetrySink(wh, "serve-run")
        service.attach_telemetry(sink, interval_s=0.010)
        service.submit(int(matrix.imsi[0]), now=0.0)
        # A long idle gap then one event: exactly one flush, not 100.
        service.poll(1.0)
        windows = [
            r[0]
            for r in wh.query(
                "SELECT window FROM metrics WHERE kind = 'gauge' "
                "GROUP BY window"
            ).rows()
        ]
        assert len(windows) <= 2

    def test_attach_rejects_bad_interval(self):
        from repro.errors import ServeError

        service, _ = self._service()
        wh = TelemetryWarehouse(git_sha="sha")
        sink = TelemetrySink(wh, "serve-run")
        with pytest.raises(ServeError):
            service.attach_telemetry(sink, interval_s=0.0)
