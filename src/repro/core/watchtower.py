"""Continuous monitoring loop: declarative alert rules over telemetry SQL.

The paper's system retrains monthly but serves continuously, so the
operator's real job is watching the windows in between.  :class:`Watchtower`
is that loop's deterministic core: after each pipeline window lands in the
:class:`~repro.dataplat.telemetry.TelemetryWarehouse`, every declared
:class:`AlertRule` runs its SQL query over the warehouse and applies its
predicate; fired :class:`Alert` s are tiered (``info`` < ``warn`` <
``page``), sunk back into ``__telemetry.alerts``, and folded into the
window's :class:`~repro.dataplat.resilience.PipelineHealthReport` so a
degraded *or* drifting window reads unhealthy from one place.

Rule semantics (all evaluated at one ``(run_id, window)`` point, using
only rows with ``window <= current``, so replays are reproducible):

``threshold``
    Fire when the current window's value crosses the threshold.
``delta``
    Fire when ``value(current) − value(previous window)`` crosses the
    threshold; never fires on the first observed window.
``consecutive``
    Fire when the threshold predicate held for the last ``consecutive``
    observed windows (ending at the current one).

A rule's SQL must return a ``window`` column and the rule's
``value_column`` (default ``value``); ``{run_id}`` in the SQL is
substituted before execution.  Queries returning no row for the current
window simply do not fire — absence of data is not an alert.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..dataplat.telemetry import TelemetrySink, TelemetryWarehouse
from ..errors import ExperimentError

__all__ = [
    "AlertRule",
    "Alert",
    "Watchtower",
    "SEVERITIES",
    "recovery_rules",
    "executor_rules",
    "query_profile_rules",
]

#: Alert tiers, least to most urgent.
SEVERITIES = ("info", "warn", "page")

_COMPARATORS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

_KINDS = ("threshold", "delta", "consecutive")


@dataclass(frozen=True)
class AlertRule:
    """One declarative predicate over telemetry history.

    >>> rule = AlertRule(
    ...     name="worst-psi-alert",
    ...     sql=(
    ...         "SELECT window, MAX(psi) AS value FROM __telemetry.drift "
    ...         "WHERE run_id = '{run_id}' GROUP BY window"
    ...     ),
    ...     threshold=0.25,
    ...     severity="page",
    ... )
    >>> rule.kind
    'threshold'
    """

    name: str
    sql: str
    threshold: float
    comparison: str = ">"
    kind: str = "threshold"
    severity: str = "warn"
    #: Number of consecutive windows the predicate must hold
    #: (``kind="consecutive"`` only).
    consecutive: int = 2
    value_column: str = "value"
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ExperimentError(
                f"rule {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {_KINDS}"
            )
        if self.comparison not in _COMPARATORS:
            raise ExperimentError(
                f"rule {self.name!r}: unknown comparison {self.comparison!r}"
            )
        if self.severity not in SEVERITIES:
            raise ExperimentError(
                f"rule {self.name!r}: unknown severity {self.severity!r}; "
                f"expected one of {SEVERITIES}"
            )
        if self.kind == "consecutive" and self.consecutive < 1:
            raise ExperimentError(
                f"rule {self.name!r}: consecutive must be >= 1"
            )

    def holds(self, value: float) -> bool:
        """Whether the raw predicate holds for one value."""
        return bool(_COMPARATORS[self.comparison](value, self.threshold))


@dataclass(frozen=True)
class Alert:
    """One fired rule at one window."""

    rule: str
    severity: str
    kind: str
    window: int
    value: float
    threshold: float
    message: str = ""

    def render(self) -> str:
        return (
            f"[{self.severity.upper():<4}] window {self.window} "
            f"{self.rule}: {self.message}"
        )


def recovery_rules() -> tuple[AlertRule, ...]:
    """Stock rules over the ``recovery.*`` counters the catalog emits.

    A scenario run is expected to open its catalog cleanly; any window
    where crash recovery actually replayed, rolled back or lost a
    transaction means the previous process died mid-commit, and one where
    it refused a registration means foreign files in the store — that pages.
    Orphan chunks swept during recovery are benign on their own (the
    crashed transaction's staging files) but worth a warning trail.

    The counters land in ``__telemetry.metrics`` via
    :meth:`~repro.dataplat.telemetry.TelemetryWarehouse.record_recovery`.
    """
    work = "('recovery.replayed', 'recovery.rolled_back', 'recovery.lost_commits', 'recovery.torn_records', 'recovery.rejected')"
    return (
        AlertRule(
            name="unexpected-crash-recovery",
            sql=(
                "SELECT window, SUM(value) AS value FROM __telemetry.metrics "
                "WHERE run_id = '{run_id}' AND kind = 'counter' "
                f"AND name IN {work} GROUP BY window"
            ),
            threshold=0.0,
            comparison=">",
            severity="page",
            description="catalog performed crash recovery",
        ),
        AlertRule(
            name="recovery-orphans-removed",
            sql=(
                "SELECT window, SUM(value) AS value FROM __telemetry.metrics "
                "WHERE run_id = '{run_id}' AND kind = 'counter' "
                "AND name = 'recovery.orphans_removed' GROUP BY window"
            ),
            threshold=0.0,
            comparison=">",
            severity="warn",
            description="fsck/recovery removed orphan files",
        ),
    )


def executor_rules() -> tuple[AlertRule, ...]:
    """Stock rule over the ``executor.fallbacks`` counter.

    A pool batch whose callable or items cannot be pickled runs serially in
    the parent: the results are identical, so nothing else notices that the
    fan-out lost its parallelism.  With the pool as the default backend
    that is a silent throughput loss, so any window whose
    ``executor.fallbacks`` delta in ``__telemetry.metrics`` is above 0
    warns.
    """
    return (
        AlertRule(
            name="executor-fallback",
            sql=(
                "SELECT window, SUM(value) AS value FROM __telemetry.metrics "
                "WHERE run_id = '{run_id}' AND kind = 'counter' "
                "AND name = 'executor.fallbacks' GROUP BY window"
            ),
            threshold=0.0,
            comparison=">",
            severity="warn",
            description="a process-pool batch ran serially (not picklable)",
        ),
    )


def query_profile_rules(
    max_q_error: float = 100.0, wall_regression: float = 2.0
) -> tuple[AlertRule, ...]:
    """Stock rules over ``__telemetry.query_profiles``.

    * ``query-estimate-misfire``: some operator's q-error in the window
      exceeded ``max_q_error`` — the binder's cardinality model is badly
      wrong for a query shape (candidate for cardinality feedback).
    * ``query-wall-regression``: a query fingerprint's total wall time
      (its root operator, ``op_id = 0``) is more than ``wall_regression``
      times the same fingerprint's wall time in an *earlier* run stored in
      the warehouse.  Division by a zero baseline yields 0 in the SQL
      dialect, so instantaneous baselines never fire it.
    """
    return (
        AlertRule(
            name="query-estimate-misfire",
            sql=(
                "SELECT window, MAX(q_error) AS value "
                "FROM __telemetry.query_profiles "
                "WHERE run_id = '{run_id}' GROUP BY window"
            ),
            threshold=max_q_error,
            comparison=">",
            severity="warn",
            description="cardinality estimate off by more than the q-error budget",
        ),
        AlertRule(
            name="query-wall-regression",
            sql=(
                "SELECT a.window AS window, MAX(a.wall_s / b.wall_s) AS value "
                "FROM __telemetry.query_profiles a "
                "JOIN __telemetry.query_profiles b "
                "ON a.fingerprint = b.fingerprint "
                "WHERE a.run_id = '{run_id}' AND b.run_id < '{run_id}' "
                "AND a.op_id = 0 AND b.op_id = 0 "
                "GROUP BY a.window"
            ),
            threshold=wall_regression,
            comparison=">",
            severity="warn",
            description="query wall time regressed vs an earlier run",
        ),
    )


class Watchtower:
    """Evaluates alert rules against a telemetry warehouse.

    Parameters
    ----------
    warehouse:
        The telemetry warehouse the rules' SQL runs against.
    rules:
        Declared :class:`AlertRule` s; duplicate names are rejected so an
        alert row always identifies one rule.
    """

    def __init__(
        self, warehouse: TelemetryWarehouse, rules: Sequence[AlertRule]
    ) -> None:
        names = [r.name for r in rules]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ExperimentError(f"duplicate alert rules: {sorted(dupes)}")
        self.warehouse = warehouse
        self.rules = tuple(rules)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, run_id: str, window: int) -> list[Alert]:
        """Run every rule at one window; returns fired alerts (rule order)."""
        fired = []
        for rule in self.rules:
            alert = self._evaluate_rule(rule, run_id, window)
            if alert is not None:
                fired.append(alert)
        return fired

    def observe(
        self,
        sink: TelemetrySink,
        window: int,
        *,
        monitoring=None,
        health=None,
    ) -> list[Alert]:
        """One turn of the monitoring loop, after a pipeline window.

        Sinks the window's drift report into the warehouse, evaluates
        every rule at this window, records fired alerts into
        ``__telemetry.alerts`` and folds them into ``health``.  Spans,
        metric deltas and the health row are the pipeline's job (via
        ``TelemetrySink.record_window``) — each telemetry table has
        exactly one writer per window.  Returns the fired alerts.
        """
        run_id = sink.run_id
        if monitoring is not None:
            self.warehouse.record_drift(run_id, window, monitoring)
        alerts = self.evaluate(run_id, window)
        if alerts:
            self.warehouse.record_alerts(run_id, window, alerts)
        if health is not None:
            health.absorb_alerts(alerts)
        return alerts

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _series(
        self, rule: AlertRule, run_id: str, window: int
    ) -> list[tuple[int, float]]:
        """(window, value) pairs up to ``window``, ascending, deduplicated."""
        table = self.warehouse.query(rule.sql.format(run_id=run_id))
        if "window" not in table.schema:
            raise ExperimentError(
                f"rule {rule.name!r}: query must return a 'window' column, "
                f"got {list(table.schema.names)}"
            )
        if rule.value_column not in table.schema:
            raise ExperimentError(
                f"rule {rule.name!r}: query must return a "
                f"{rule.value_column!r} column, got {list(table.schema.names)}"
            )
        points: dict[int, float] = {}
        for w, v in zip(table["window"], table[rule.value_column]):
            w = int(w)
            if w <= window:
                points[w] = float(v)
        return sorted(points.items())

    def _evaluate_rule(
        self, rule: AlertRule, run_id: str, window: int
    ) -> Alert | None:
        series = self._series(rule, run_id, window)
        if not series or series[-1][0] != window:
            return None
        value = series[-1][1]
        if rule.kind == "threshold":
            if not rule.holds(value):
                return None
            message = (
                f"value {value:.4f} {rule.comparison} {rule.threshold:g}"
            )
        elif rule.kind == "delta":
            if len(series) < 2:
                return None
            value = value - series[-2][1]
            if not rule.holds(value):
                return None
            message = (
                f"delta {value:+.4f} vs window {series[-2][0]} "
                f"{rule.comparison} {rule.threshold:g}"
            )
        else:  # consecutive
            if len(series) < rule.consecutive:
                return None
            tail = series[-rule.consecutive:]
            if not all(rule.holds(v) for _, v in tail):
                return None
            message = (
                f"{rule.comparison} {rule.threshold:g} for "
                f"{rule.consecutive} consecutive windows "
                f"({tail[0][0]}..{tail[-1][0]})"
            )
        if rule.description:
            message = f"{rule.description}: {message}"
        return Alert(
            rule=rule.name,
            severity=rule.severity,
            kind=rule.kind,
            window=window,
            value=value,
            threshold=rule.threshold,
            message=message,
        )
