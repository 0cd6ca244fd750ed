"""Watchtower SLO rules for the serving path.

:meth:`~repro.serve.service.ScoringService.slo_snapshot` folds the
hot-path instruments into gauges, the
:class:`~repro.dataplat.telemetry.TelemetrySink` lands them in
``__telemetry.metrics`` at each window, and these rules evaluate there —
the same loop the drift and recovery rules use, no serving-specific
alert plumbing.
"""

from __future__ import annotations

from ..core.watchtower import AlertRule

#: Default p99 latency budget (seconds) — the benchmark gate's 50 ms.
DEFAULT_P99_BUDGET_S = 0.050

#: Default tolerated fraction of unserved requests (shed/expired/failed).
DEFAULT_SHED_RATE_BUDGET = 0.05

_GAUGE_SQL = (
    "SELECT window, MAX(value) AS value FROM __telemetry.metrics "
    "WHERE run_id = '{run_id}' AND kind = 'gauge' "
    "AND name = '%s' GROUP BY window"
)

_COUNTER_SQL = (
    "SELECT window, SUM(value) AS value FROM __telemetry.metrics "
    "WHERE run_id = '{run_id}' AND kind = 'counter' "
    "AND name = '%s' GROUP BY window"
)


def serve_rules() -> tuple[AlertRule, ...]:
    """Stock serving SLO rules: page on p99 breach or shed-rate spike.

    A failed model swap only warns — the stale-model fallback keeps
    serving, but the on-call should know the fleet is pinned to an old
    version.
    """
    return (
        AlertRule(
            name="serve-p99-breach",
            sql=_GAUGE_SQL % "serve.latency_p99_s",
            threshold=DEFAULT_P99_BUDGET_S,
            comparison=">",
            severity="page",
            description="online scoring p99 latency over budget",
        ),
        AlertRule(
            name="serve-shed-spike",
            sql=_GAUGE_SQL % "serve.shed_rate",
            threshold=DEFAULT_SHED_RATE_BUDGET,
            comparison=">",
            severity="page",
            description="online scoring shedding more than budgeted",
        ),
        AlertRule(
            name="serve-model-swap-failed",
            sql=_COUNTER_SQL % "serve.model_swap_failures",
            threshold=0.0,
            comparison=">",
            severity="warn",
            description="model swap failed; serving stale model",
        ),
    )
