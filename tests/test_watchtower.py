"""Tests for the watchtower monitoring loop and the drift scenario."""

import numpy as np
import pytest

from repro.core import ChurnPipeline, ModelMonitor
from repro.core.watchtower import Alert, AlertRule, Watchtower
from repro.datagen.scenarios import DriftScenario, inject_drift
from repro.dataplat.executor import ProcessPoolBackend
from repro.dataplat.telemetry import TelemetrySink, TelemetryWarehouse
from repro.errors import ExperimentError, SimulationError
from repro.features import WideTableBuilder

GAUGE_SQL = (
    "SELECT window, MAX(value) AS value FROM __telemetry.metrics "
    "WHERE run_id = '{run_id}' AND kind = 'gauge' AND name = 'auc' "
    "GROUP BY window"
)


def _warehouse_with_series(values: dict[int, float]) -> TelemetryWarehouse:
    wh = TelemetryWarehouse(git_sha="sha")
    for window, value in values.items():
        wh.record_metrics("r1", window, {"gauges": {"auc": value}})
    return wh


class TestAlertRule:
    def test_defaults(self):
        rule = AlertRule(name="r", sql=GAUGE_SQL, threshold=0.5)
        assert rule.kind == "threshold"
        assert rule.severity == "warn"
        assert rule.holds(0.6) and not rule.holds(0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nope"},
            {"comparison": "=="},
            {"severity": "loud"},
            {"kind": "consecutive", "consecutive": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ExperimentError):
            AlertRule(name="r", sql=GAUGE_SQL, threshold=0.5, **kwargs)

    def test_comparisons(self):
        lt = AlertRule(name="r", sql=GAUGE_SQL, threshold=1.0, comparison="<")
        assert lt.holds(0.5) and not lt.holds(1.5)
        ge = AlertRule(name="r", sql=GAUGE_SQL, threshold=1.0, comparison=">=")
        assert ge.holds(1.0) and not ge.holds(0.9)


class TestWatchtowerEvaluation:
    def test_threshold_fires_on_current_window_only(self):
        wh = _warehouse_with_series({5: 0.2, 6: 0.9})
        rule = AlertRule(name="high", sql=GAUGE_SQL, threshold=0.5)
        tower = Watchtower(wh, [rule])
        assert tower.evaluate("r1", 5) == []
        fired = tower.evaluate("r1", 6)
        assert [a.rule for a in fired] == ["high"]
        assert fired[0].value == pytest.approx(0.9)

    def test_threshold_ignores_future_windows(self):
        """Replaying window 5 after window 6 landed must not see window 6."""
        wh = _warehouse_with_series({5: 0.2, 6: 0.9})
        rule = AlertRule(name="high", sql=GAUGE_SQL, threshold=0.5)
        assert Watchtower(wh, [rule]).evaluate("r1", 5) == []

    def test_no_row_for_window_does_not_fire(self):
        wh = _warehouse_with_series({5: 0.9})
        rule = AlertRule(name="high", sql=GAUGE_SQL, threshold=0.5)
        assert Watchtower(wh, [rule]).evaluate("r1", 7) == []

    def test_delta_needs_two_windows(self):
        wh = _warehouse_with_series({5: 0.9, 6: 0.6})
        rule = AlertRule(
            name="drop",
            sql=GAUGE_SQL,
            threshold=-0.2,
            comparison="<",
            kind="delta",
        )
        tower = Watchtower(wh, [rule])
        assert tower.evaluate("r1", 5) == []
        fired = tower.evaluate("r1", 6)
        assert len(fired) == 1
        assert fired[0].value == pytest.approx(-0.3)

    def test_consecutive_requires_full_streak(self):
        wh = _warehouse_with_series({5: 0.8, 6: 0.4, 7: 0.9, 8: 0.95})
        rule = AlertRule(
            name="sustained",
            sql=GAUGE_SQL,
            threshold=0.5,
            kind="consecutive",
            consecutive=2,
        )
        tower = Watchtower(wh, [rule])
        assert tower.evaluate("r1", 5) == []  # only one point so far
        assert tower.evaluate("r1", 6) == []  # 0.4 breaks the streak
        assert tower.evaluate("r1", 7) == []  # streak length 1
        assert [a.rule for a in tower.evaluate("r1", 8)] == ["sustained"]

    def test_alerts_fire_in_rule_order(self):
        wh = _warehouse_with_series({5: 0.9})
        rules = [
            AlertRule(name="b", sql=GAUGE_SQL, threshold=0.5),
            AlertRule(name="a", sql=GAUGE_SQL, threshold=0.5, severity="page"),
        ]
        fired = Watchtower(wh, rules).evaluate("r1", 5)
        assert [a.rule for a in fired] == ["b", "a"]

    def test_duplicate_rule_names_rejected(self):
        wh = TelemetryWarehouse(git_sha="sha")
        rule = AlertRule(name="r", sql=GAUGE_SQL, threshold=0.5)
        with pytest.raises(ExperimentError):
            Watchtower(wh, [rule, rule])

    def test_query_must_return_required_columns(self):
        wh = _warehouse_with_series({5: 0.9})
        rule = AlertRule(
            name="bad",
            sql=(
                "SELECT window, MAX(value) AS wrong FROM __telemetry.metrics "
                "WHERE run_id = '{run_id}' GROUP BY window"
            ),
            threshold=0.5,
        )
        with pytest.raises(ExperimentError):
            Watchtower(wh, [rule]).evaluate("r1", 5)

    def test_observe_records_drift_and_alerts(self, rng):
        from repro.dataplat.resilience import PipelineHealthReport

        wh = TelemetryWarehouse(git_sha="sha")
        sink = TelemetrySink(wh, "r1")
        monitor = ModelMonitor(["a"], rng.normal(size=(300, 1)))
        report = monitor.compare(rng.normal(3.0, 1, size=(300, 1)))
        rule = AlertRule(
            name="psi",
            sql=(
                "SELECT window, MAX(psi) AS value FROM __telemetry.drift "
                "WHERE run_id = '{run_id}' GROUP BY window"
            ),
            threshold=0.25,
            severity="page",
        )
        health = PipelineHealthReport(families_used=["F1"])
        fired = Watchtower(wh, [rule]).observe(
            sink, 5, monitoring=report, health=health
        )
        assert [a.severity for a in fired] == ["page"]
        assert health.alerts == fired
        assert health.paged
        stored = list(
            wh.query("SELECT rule, severity FROM __telemetry.alerts").rows()
        )
        assert stored == [("psi", "page")]

    def test_alert_render(self):
        alert = Alert(
            rule="r", severity="page", kind="threshold",
            window=5, value=1.0, threshold=0.5, message="m",
        )
        assert "[PAGE]" in alert.render() and "window 5" in alert.render()


class TestDriftScenario:
    def test_validation(self):
        with pytest.raises(SimulationError):
            DriftScenario(arpu_decay_rate=1.0)
        with pytest.raises(SimulationError):
            DriftScenario(ps_shift=-0.1)
        with pytest.raises(SimulationError):
            DriftScenario(arpu_decay_start=0)

    def test_decay_compounds_and_shift_is_sudden(self, tiny_world):
        scenario = DriftScenario(
            arpu_decay_start=6, arpu_decay_rate=0.2,
            ps_shift_month=8, ps_shift=1.0,
        )
        drifted = inject_drift(tiny_world, scenario)
        for month, factor in ((6, 0.8), (7, 0.64)):
            before = tiny_world.month(month).tables["billing"]["total_charge"]
            after = drifted.month(month).tables["billing"]["total_charge"]
            np.testing.assert_allclose(after, before * factor)
        before = tiny_world.month(8).tables["ps_kpi"]
        after = drifted.month(8).tables["ps_kpi"]
        np.testing.assert_allclose(
            after["page_response_delay"], before["page_response_delay"] * 2.0
        )
        np.testing.assert_allclose(
            after["page_download_throughput"],
            before["page_download_throughput"] / 2.0,
        )

    def test_pre_onset_months_shared_and_original_untouched(self, tiny_world):
        scenario = DriftScenario(arpu_decay_start=6, arpu_decay_rate=0.2)
        baseline = tiny_world.month(6).tables["billing"]["total_charge"].copy()
        drifted = inject_drift(tiny_world, scenario)
        assert (
            drifted.month(5).tables["billing"]
            is tiny_world.month(5).tables["billing"]
        )
        np.testing.assert_array_equal(
            tiny_world.month(6).tables["billing"]["total_charge"], baseline
        )
        np.testing.assert_array_equal(
            drifted.month(6).churn_next, tiny_world.month(6).churn_next
        )

    def test_deterministic(self, tiny_world):
        scenario = DriftScenario(arpu_decay_start=6, ps_shift_month=7)
        a = inject_drift(tiny_world, scenario)
        b = inject_drift(tiny_world, scenario)
        np.testing.assert_array_equal(
            a.month(7).tables["ps_kpi"]["tcp_rtt"],
            b.month(7).tables["ps_kpi"]["tcp_rtt"],
        )


#: The declared rules of the end-to-end scenario (mirrors
#: ``examples/watchtower_drift.py``).
SCENARIO_RULES = (
    AlertRule(
        name="billing-drift-sustained",
        sql=(
            "SELECT window, MAX(psi) AS value FROM __telemetry.drift "
            "WHERE run_id = '{run_id}' AND name = 'total_charge' "
            "GROUP BY window"
        ),
        threshold=0.1,
        kind="consecutive",
        consecutive=2,
        severity="warn",
    ),
    AlertRule(
        name="ps-kpi-shifted",
        sql=(
            "SELECT window, MAX(psi) AS value FROM __telemetry.drift "
            "WHERE run_id = '{run_id}' AND name = 'page_response_delay' "
            "GROUP BY window"
        ),
        threshold=0.25,
        severity="page",
    ),
)


def _run_scenario(world, scale) -> list[tuple]:
    """Drive the full loop on the default backend; returns the stored alert
    rows."""
    from repro.dataplat import observability

    scenario = DriftScenario(
        arpu_decay_start=6, arpu_decay_rate=0.25,
        ps_shift_month=8, ps_shift=1.5,
    )
    drifted = inject_drift(world, scenario)
    wh = TelemetryWarehouse(git_sha="sha")
    sink = TelemetrySink(wh, "scenario-0001")
    tower = Watchtower(wh, SCENARIO_RULES)
    builder = WideTableBuilder(drifted)

    def features(month):
        parts = [builder.category(f, month) for f in ("F1", "F3")]
        names = [n for p in parts for n in p.names]
        return names, np.hstack([p.values for p in parts])

    names, reference = features(5)
    monitor = ModelMonitor(names, reference, reference_label="month 5")

    previous = observability.set_metrics(None)
    try:
        pipeline = ChurnPipeline(
            drifted, scale, seed=0, telemetry=sink
        )
        for spec in pipeline.windows.windows(test_months=[6, 7, 8]):
            result = pipeline.run_window(spec)
            month = spec.test_month
            _, current = features(month)
            report = monitor.compare(
                current, current_label=f"month {month}",
                pipeline_health=result.health,
            )
            tower.observe(sink, month, monitoring=report, health=result.health)
    finally:
        observability.set_metrics(previous)
    return list(
        wh.query(
            "SELECT window, rule, severity FROM __telemetry.alerts "
            "ORDER BY window, rule"
        ).rows()
    )


class TestDriftScenarioEndToEnd:
    """ISSUE acceptance: exactly the declared alerts, on both backends."""

    def test_exact_alerts_and_backend_parity(self, tiny_world, tiny_scale, use_backend):
        use_backend("serial")
        serial = _run_scenario(tiny_world, tiny_scale)
        # The gradual decay must persist 2 windows before the warn fires;
        # the sudden PS shift pages in its first window; nothing else.
        assert serial == [
            (7, "billing-drift-sustained", "warn"),
            (8, "billing-drift-sustained", "warn"),
            (8, "ps-kpi-shifted", "page"),
        ]
        with ProcessPoolBackend(max_workers=2) as pool:
            use_backend(pool)
            parallel = _run_scenario(tiny_world, tiny_scale)
            assert pool.tasks_dispatched > 0
        assert parallel == serial
