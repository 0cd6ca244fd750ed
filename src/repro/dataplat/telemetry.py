"""Telemetry warehouse: durable, SQL-queryable observability history.

The paper's deployment retrains monthly and serves campaign lists
continuously (§6), so the system's real operating mode is *between*
retrains — exactly where spans, metrics and drift reports used to be
ephemeral in-process objects that vanished with the run.  This module sinks
every run's observability output into append-only catalog tables under the
``__telemetry`` database, so the repo's own SQL engine can answer operator
questions longitudinally ("p95 window build time over the last 6 windows",
"which feature family's PSI crossed 0.25 first"):

* ``__telemetry.spans``   — flattened :class:`~.observability.Span` trees
  (one row per span, pre-order ids, parent links, JSON tags/counters);
* ``__telemetry.metrics`` — :class:`~.observability.MetricsRegistry`
  snapshots: counters and histogram buckets as *per-window deltas* (both
  are monotone, so subtraction is exact), gauges as point-in-time values;
* ``__telemetry.drift``   — :class:`~repro.core.monitoring.DriftFinding`
  rows (feature and score PSI with the tier label);
* ``__telemetry.health``  — one
  :class:`~.resilience.PipelineHealthReport` summary row per window;
* ``__telemetry.alerts``  — tiered alerts fired by
  :class:`~repro.core.watchtower.Watchtower` rules.

Every row is keyed by ``(run_id, window, git_sha)``.  Each
``(table, run, window)`` write lands in its own catalog partition, which
makes retention compaction a partition drop (:meth:`TelemetryWarehouse.
compact`) rather than a rewrite.  Run ids should sort chronologically
(zero-padded sequence numbers or ISO timestamps) — retention keeps the
lexicographically largest ids.

:class:`TelemetrySink` is the per-run recording facade the pipeline holds:
it remembers the previous metrics snapshot (for exact deltas) and suspends
tracing while it writes, so sinking telemetry never traces itself.
"""

from __future__ import annotations

import json
import subprocess
from collections.abc import Sequence
from pathlib import Path

from ..errors import DataPlatformError
from . import observability
from .catalog import Catalog
from .observability import MetricsRegistry, Span
from .schema import Schema
from .sql import SQLEngine
from .table import Table

__all__ = [
    "TELEMETRY_DATABASE",
    "TELEMETRY_SCHEMAS",
    "TelemetryWarehouse",
    "TelemetrySink",
    "current_git_sha",
]

#: All telemetry tables live in this catalog database.
TELEMETRY_DATABASE = "__telemetry"

#: Stable row layouts, one per telemetry table.  Changing a schema is a
#: breaking change for every stored run — append new tables instead.
TELEMETRY_SCHEMAS: dict[str, Schema] = {
    "spans": Schema.of(
        run_id="string",
        window="int",
        git_sha="string",
        span_id="int",
        parent_id="int",
        depth="int",
        name="string",
        status="string",
        wall_s="float",
        cpu_s="float",
        tags="string",
        counters="string",
    ),
    "metrics": Schema.of(
        run_id="string",
        window="int",
        git_sha="string",
        kind="string",
        name="string",
        bucket="string",
        value="float",
    ),
    "drift": Schema.of(
        run_id="string",
        window="int",
        git_sha="string",
        metric="string",
        name="string",
        psi="float",
        level="string",
        reference="string",
        current="string",
    ),
    "health": Schema.of(
        run_id="string",
        window="int",
        git_sha="string",
        status="string",
        degraded="bool",
        families_used="string",
        families_dropped="string",
        read_retries="int",
        repaired_replicas="int",
        quarantined_rows="int",
        faults_injected="int",
        cache_hits="int",
        cache_misses="int",
    ),
    "alerts": Schema.of(
        run_id="string",
        window="int",
        git_sha="string",
        rule="string",
        severity="string",
        kind="string",
        value="float",
        threshold="float",
        message="string",
    ),
}


def current_git_sha() -> str:
    """Short commit hash of the working tree (``unknown`` outside git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _json_compact(data: dict) -> str:
    """Deterministic single-line JSON (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)


class TelemetryWarehouse:
    """Append-only observability tables over a catalog, plus SQL access.

    Parameters
    ----------
    catalog:
        Backing catalog; a private one is created if omitted.  Sharing the
        pipeline's catalog is fine — telemetry lives in its own database.
    git_sha:
        Stamped onto every row; defaults to the working tree's short hash.

    Telemetry tables partition per (run, window), so watchtower queries
    filtering on ``window`` or ``run_id`` skip every other partition via
    zone maps.
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        git_sha: str | None = None,
    ) -> None:
        self._catalog = catalog if catalog is not None else Catalog()
        self._catalog.create_database(TELEMETRY_DATABASE)
        self._engine = SQLEngine(self._catalog, database=TELEMETRY_DATABASE)
        self.git_sha = git_sha if git_sha is not None else current_git_sha()

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def engine(self) -> SQLEngine:
        """SQL engine bound to the ``__telemetry`` database."""
        return self._engine

    def query(self, sql: str) -> Table:
        """Run SQL against the telemetry tables.

        Unqualified names resolve inside ``__telemetry``; the qualified
        ``__telemetry.spans`` form works from any engine over this catalog.
        """
        return self._engine.query(sql)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_spans(
        self, run_id: str, window: int, roots: Sequence[Span]
    ) -> int:
        """Flatten finished span trees into ``__telemetry.spans`` rows.

        Span ids are depth-first pre-order indices within the window
        (roots' parent_id is −1), so the tree is reconstructable and
        self-time is computable with one join.  Returns the row count.
        """
        rows: list[tuple] = []

        def visit(span: Span, parent_id: int, depth: int) -> None:
            span_id = len(rows)
            rows.append(
                (
                    run_id,
                    window,
                    self.git_sha,
                    span_id,
                    parent_id,
                    depth,
                    span.name,
                    span.status,
                    span.wall_s,
                    span.cpu_s,
                    _json_compact(span.tags),
                    _json_compact(span.counters),
                )
            )
            for child in span.children:
                visit(child, span_id, depth + 1)

        for root in roots:
            visit(root, -1, 0)
        self._append("spans", run_id, window, rows)
        return len(rows)

    def record_metrics(
        self, run_id: str, window: int, snapshot: dict
    ) -> int:
        """Sink one :meth:`MetricsRegistry.snapshot`-shaped dict.

        The caller decides the snapshot's scope (cumulative or per-window
        delta — :class:`TelemetrySink` records exact deltas).  Histograms
        land as one ``hist_bucket`` row per bucket (``bucket`` is the
        upper bound, ``+inf`` for the overflow bucket) plus ``hist_count``
        and ``hist_sum`` rows.
        """
        rows: list[tuple] = []

        def add(kind: str, name: str, bucket: str, value: float) -> None:
            rows.append(
                (run_id, window, self.git_sha, kind, name, bucket, float(value))
            )

        for name, value in snapshot.get("counters", {}).items():
            add("counter", name, "", value)
        for name, value in snapshot.get("gauges", {}).items():
            add("gauge", name, "", value)
        for name, hist in snapshot.get("histograms", {}).items():
            bounds = list(hist["boundaries"]) + ["+inf"]
            for bound, count in zip(bounds, hist["counts"]):
                add("hist_bucket", name, str(bound), count)
            add("hist_count", name, "", hist["total"])
            add("hist_sum", name, "", hist["sum"])
        self._append("metrics", run_id, window, rows)
        return len(rows)

    def record_recovery(self, run_id: str, window: int, report) -> int:
        """Sink a :class:`~.journal.RecoveryReport` as recovery counters.

        One ``recovery.*`` counter row per non-zero field (plus an
        always-written ``recovery.runs`` marker), so watchtower threshold
        rules can page on *any* unexpected replay/rollback in a scenario
        run without a schema of their own.
        """
        counters = {"recovery.runs": 1.0}
        counters.update(
            {
                name: float(value)
                for name, value in report.counters().items()
                if value
            }
        )
        return self.record_metrics(run_id, window, {"counters": counters})

    def record_drift(self, run_id: str, window: int, report) -> int:
        """Sink a :class:`~repro.core.monitoring.MonitoringReport`.

        One row per feature finding, one for the score finding (when
        present); the realized churn rates additionally land in the
        metrics table as ``monitor.churn_rate_{reference,current}`` gauges
        so delta/threshold alert rules can watch them.
        """
        rows = [
            (
                run_id,
                window,
                self.git_sha,
                "feature",
                finding.name,
                float(finding.psi),
                finding.level,
                report.reference_label,
                report.current_label,
            )
            for finding in report.feature_findings
        ]
        if report.score_finding is not None:
            rows.append(
                (
                    run_id,
                    window,
                    self.git_sha,
                    "score",
                    report.score_finding.name,
                    float(report.score_finding.psi),
                    report.score_finding.level,
                    report.reference_label,
                    report.current_label,
                )
            )
        self._append("drift", run_id, window, rows)
        self.record_metrics(
            run_id,
            window,
            {
                "gauges": {
                    "monitor.churn_rate_reference": report.reference_churn_rate,
                    "monitor.churn_rate_current": report.current_churn_rate,
                }
            },
        )
        return len(rows)

    def record_health(self, run_id: str, window: int, health) -> int:
        """Sink one :class:`~.resilience.PipelineHealthReport` summary row."""
        rows = [
            (
                run_id,
                window,
                self.git_sha,
                health.status,
                health.degraded,
                ",".join(health.families_used),
                ",".join(sorted(health.families_dropped)),
                health.retries,
                health.repaired_replicas,
                health.quarantined_rows,
                health.faults_injected,
                health.cache_hits,
                health.cache_misses,
            )
        ]
        self._append("health", run_id, window, rows)
        return len(rows)

    def record_alerts(self, run_id: str, window: int, alerts: Sequence) -> int:
        """Sink fired :class:`~repro.core.watchtower.Alert` rows."""
        rows = [
            (
                run_id,
                window,
                self.git_sha,
                alert.rule,
                alert.severity,
                alert.kind,
                float(alert.value),
                float(alert.threshold),
                alert.message,
            )
            for alert in alerts
        ]
        self._append("alerts", run_id, window, rows)
        return len(rows)

    # ------------------------------------------------------------------
    # History inspection and retention
    # ------------------------------------------------------------------

    def tables(self) -> list[str]:
        """Telemetry tables with at least one stored partition."""
        return self._catalog.tables(TELEMETRY_DATABASE)

    def runs(self) -> list[str]:
        """Distinct run ids across all telemetry tables, sorted."""
        out: set[str] = set()
        for name in self.tables():
            for partition in self._catalog.partitions(name, TELEMETRY_DATABASE):
                out.add(self._parse_partition(partition)[0])
        return sorted(out)

    def windows(self, run_id: str) -> list[int]:
        """Windows recorded for one run, sorted ascending."""
        out: set[int] = set()
        for name in self.tables():
            for partition in self._catalog.partitions(name, TELEMETRY_DATABASE):
                run, window = self._parse_partition(partition)
                if run == run_id:
                    out.add(window)
        return sorted(out)

    def compact(self, keep_runs: int) -> list[str]:
        """Retention: drop every run except the newest ``keep_runs``.

        "Newest" is lexicographic run-id order (ids are expected to sort
        chronologically).  Dropping is a per-partition catalog delete — no
        surviving row is rewritten.  Returns the dropped run ids.
        """
        if keep_runs < 1:
            raise DataPlatformError(f"keep_runs must be >= 1, got {keep_runs}")
        doomed = self.runs()[:-keep_runs]
        for run_id in doomed:
            for name in self.tables():
                for partition in list(
                    self._catalog.partitions(name, TELEMETRY_DATABASE)
                ):
                    if self._parse_partition(partition)[0] == run_id:
                        self._catalog.drop_partition(
                            name, partition, database=TELEMETRY_DATABASE
                        )
        return doomed

    # ------------------------------------------------------------------
    # Portability (the dashboard script reads these dumps)
    # ------------------------------------------------------------------

    def dump(self, path: str | Path) -> int:
        """Write the whole warehouse as one JSON file; returns row count.

        The block store is in-memory, so this is how telemetry history
        leaves the process (``scripts/obs_dashboard.py`` renders dumps).
        """
        payload: dict[str, list] = {"version": 1, "tables": {}}
        total = 0
        for name in self.tables():
            table = self._catalog.load(name, database=TELEMETRY_DATABASE)
            payload["tables"][name] = {
                "columns": list(table.schema.names),
                "rows": [list(row) for row in table.rows()],
            }
            total += table.num_rows
        Path(path).write_text(json.dumps(payload, indent=1, default=_jsonify))
        return total

    @classmethod
    def load_dump(cls, path: str | Path) -> "TelemetryWarehouse":
        """Rebuild a queryable warehouse from a :meth:`dump` file."""
        payload = json.loads(Path(path).read_text())
        warehouse = cls(git_sha="unknown")
        for name, data in payload["tables"].items():
            schema = TELEMETRY_SCHEMAS.get(name)
            if schema is None or list(schema.names) != data["columns"]:
                raise DataPlatformError(
                    f"dump table {name!r} does not match the current "
                    f"telemetry schema"
                )
            rows = [tuple(row) for row in data["rows"]]
            # Regroup by (run, window) so partition-based retention still
            # works on a reloaded warehouse.
            by_key: dict[tuple[str, int], list[tuple]] = {}
            run_col = data["columns"].index("run_id")
            window_col = data["columns"].index("window")
            for row in rows:
                by_key.setdefault(
                    (row[run_col], int(row[window_col])), []
                ).append(row)
            for (run_id, window), group in sorted(by_key.items()):
                warehouse._append(name, run_id, window, group)
        return warehouse

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _append(
        self, name: str, run_id: str, window: int, rows: list[tuple]
    ) -> None:
        if not rows:
            return
        _validate_run_id(run_id)
        schema = TELEMETRY_SCHEMAS[name]
        partition = f"run={run_id}/window={window}"
        if name in self.tables() and partition in self._catalog.partitions(
            name, TELEMETRY_DATABASE
        ):
            # Append within the window: catalog saves overwrite a
            # partition, so fold the existing rows back in first.
            existing = self._catalog.load(
                name, database=TELEMETRY_DATABASE, partition=partition
            )
            rows = list(existing.rows()) + rows
        table = Table.from_rows(schema, rows)
        self._catalog.save(
            table,
            name,
            database=TELEMETRY_DATABASE,
            partition=partition,
        )

    @staticmethod
    def _parse_partition(partition: str) -> tuple[str, int]:
        run_part, _, window_part = partition.partition("/")
        return run_part.removeprefix("run="), int(
            window_part.removeprefix("window=")
        )


def _validate_run_id(run_id: str) -> None:
    if "/" in run_id or "=" in run_id:
        raise DataPlatformError(
            f"run id must not contain '/' or '=': {run_id!r}"
        )


def _jsonify(value):
    """JSON fallback for numpy scalars inside dump rows."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


class TelemetrySink:
    """Per-run recording facade: one run id, exact metric deltas.

    The pipeline holds one sink per run and calls :meth:`record_window`
    after each window.  The sink

    * snapshots the metrics registry and writes the *delta* against the
      previous window (counters and histogram bucket counts are monotone,
      so the subtraction is exact; gauges are written as-is), making every
      window's metric rows independent of run length;
    * suspends the active tracer while writing, so sinking telemetry never
      shows up in the telemetry it sinks.
    """

    def __init__(
        self,
        warehouse: TelemetryWarehouse,
        run_id: str,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        _validate_run_id(run_id)
        self.warehouse = warehouse
        self.run_id = run_id
        self._metrics = metrics
        self._last_snapshot: dict | None = None

    def _registry(self) -> MetricsRegistry:
        return (
            self._metrics
            if self._metrics is not None
            else observability.get_metrics()
        )

    def record_window(
        self,
        window: int,
        *,
        spans: Sequence[Span] = (),
        health=None,
    ) -> None:
        """Sink one window's spans, metric deltas and health.

        Drift rows have one writer,
        :meth:`~repro.core.watchtower.Watchtower.observe`.
        """
        previous_tracer = observability.set_tracer(None)
        try:
            if spans:
                self.warehouse.record_spans(self.run_id, window, spans)
            snapshot = self._registry().snapshot()
            delta = _snapshot_delta(self._last_snapshot, snapshot)
            self._last_snapshot = snapshot
            self.warehouse.record_metrics(self.run_id, window, delta)
            if health is not None:
                self.warehouse.record_health(self.run_id, window, health)
        finally:
            observability.set_tracer(previous_tracer)


def _snapshot_delta(previous: dict | None, current: dict) -> dict:
    """Per-window delta between two cumulative registry snapshots."""
    if previous is None:
        return current
    counters = {
        name: value - previous.get("counters", {}).get(name, 0.0)
        for name, value in current.get("counters", {}).items()
    }
    histograms = {}
    for name, hist in current.get("histograms", {}).items():
        prior = previous.get("histograms", {}).get(name)
        if prior is None or prior["boundaries"] != hist["boundaries"]:
            histograms[name] = hist
            continue
        counts = [a - b for a, b in zip(hist["counts"], prior["counts"])]
        total = hist["total"] - prior["total"]
        histograms[name] = {
            "boundaries": hist["boundaries"],
            "counts": counts,
            "total": total,
            "sum": hist["sum"] - prior["sum"],
            "mean": (hist["sum"] - prior["sum"]) / total if total else 0.0,
            # Window-scoped extrema are unrecoverable from cumulative
            # snapshots; report the run-so-far values.
            "min": hist["min"],
            "max": hist["max"],
        }
    return {
        "counters": counters,
        "gauges": dict(current.get("gauges", {})),
        "histograms": histograms,
    }
