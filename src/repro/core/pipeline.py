"""End-to-end churn pipeline: features → rebalance → train → rank → score.

:class:`ChurnPipeline` executes :class:`~repro.core.window.WindowSpec`
windows over one simulated world.  It owns a
:class:`~repro.features.widetable.WideTableBuilder` (so expensive blocks are
cached across windows), applies the imbalance treatment, fits the chosen
classifier and reports the paper's four metrics at the scaled top-U cutoffs.

The **velocity** variant (Table 5) uses a compact fast-feature set computed
from the daily CDR over a 30-day window ending ``staleness_days`` before the
month boundary — sliding the window every 5 days instead of every 30 means
the model that scores a customer saw fresher behaviour.
"""

from __future__ import annotations

import copy
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..config import ModelConfig, ScaleConfig
from ..datagen.bss import DAYS_PER_MONTH
from ..datagen.simulator import TelcoWorld
from ..dataplat import observability
from ..dataplat.blockstore import BlockStore
from ..dataplat.executor import ExecutorBackend
from ..dataplat.observability import span
from ..dataplat.resilience import PipelineHealthReport
from ..dataplat.telemetry import TelemetrySink
from ..errors import DataPlatformError, ExperimentError, FeatureError
from ..features import ALL_CATEGORIES, WideTableBuilder
from ..ml.metrics import pr_auc, precision_at, recall_at, roc_auc
from ..ml.sampling import rebalance
from .labeling import churn_labels
from .predictor import ChurnPredictor
from .window import SlidingWindow, WindowSpec

#: Paper cutoffs used in most experiments (Figure 7, Tables 2/5).
DEFAULT_PAPER_U = (50_000, 100_000, 200_000)


@dataclass
class WindowResult:
    """Metrics plus raw predictions for one window."""

    spec: WindowSpec
    auc: float
    pr_auc: float
    recall_at: dict[int, float]
    precision_at: dict[int, float]
    #: Slots of the scored (test) customers, aligned with scores/labels.
    test_slots: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    predictor: ChurnPredictor = field(repr=False)
    feature_names: list[str] = field(repr=False)
    #: Resilience accounting for degraded-mode runs (None when the pipeline
    #: runs without a resilience runtime).
    health: PipelineHealthReport | None = field(default=None, repr=False)


class ChurnPipeline:
    """Train/evaluate churn prediction windows over one world."""

    def __init__(
        self,
        world: TelcoWorld,
        scale: ScaleConfig,
        categories: tuple[str, ...] = ALL_CATEGORIES,
        classifier: str = "rf",
        model: ModelConfig | None = None,
        imbalance: str = "weighted",
        paper_u: tuple[int, ...] = DEFAULT_PAPER_U,
        seed: int = 0,
        table_source: Callable[[int], dict] | None = None,
        store: BlockStore | None = None,
        allow_degraded: bool = False,
        backend: "ExecutorBackend | str | None" = None,
        telemetry: TelemetrySink | None = None,
    ) -> None:
        unknown = set(categories) - set(ALL_CATEGORIES)
        if unknown:
            raise ExperimentError(f"unknown feature categories: {sorted(unknown)}")
        self.world = world
        self.scale = scale
        self.categories = tuple(categories)
        self.classifier = classifier
        self.model = model if model is not None else ModelConfig()
        self.imbalance = imbalance
        self.paper_u = paper_u
        self.seed = seed
        #: ``table_source`` routes raw-table reads through an alternative
        #: provider (e.g. a catalog over the block store); ``store`` lets the
        #: per-window health report absorb that store's repair counters;
        #: ``allow_degraded`` turns on graceful degradation — windows drop
        #: unbuildable F2..F9 families instead of failing, and each
        #: :class:`WindowResult` carries a :class:`PipelineHealthReport`.
        #: ``backend`` fans out the extractor fits, per-month feature
        #: builds and per-tree RF work; results are bit-identical to serial
        #: runs.
        #: ``telemetry`` sinks every window's spans, metric deltas and
        #: health report into the warehouse, keyed by the sink's run id.
        self.allow_degraded = allow_degraded
        self._table_source = table_source
        self._store = store
        self._backend = backend
        self.telemetry = telemetry
        self.builder = WideTableBuilder(world, seed=seed, table_source=table_source)
        self.windows = SlidingWindow(world)
        self._label_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------

    def labels(self, month: int) -> np.ndarray:
        """Per-slot churn-next labels of a feature month (cached)."""
        cached = self._label_cache.get(month)
        if cached is None:
            cached = churn_labels(self.world, month)
            self._label_cache[month] = cached
        return cached

    # ------------------------------------------------------------------
    # Window execution
    # ------------------------------------------------------------------

    def run_window(
        self, spec: WindowSpec, categories: tuple[str, ...] | None = None
    ) -> WindowResult:
        """Train on the window's labeled months, score its test month.

        With ``allow_degraded`` the window survives missing sources: F2..F9
        families that cannot be built for every month of the window are
        dropped (recorded on the health report) and the model trains on the
        surviving columns, so a degraded platform still ships a churn list.

        Under an active tracer the whole window runs inside a
        ``pipeline.window`` span, and the window's health report (when
        present) absorbs the per-stage span timings of its own subtree.
        """
        start = time.perf_counter()
        with span(
            "pipeline.window",
            test_month=spec.test_month,
            train_months=list(spec.train_months),
        ) as window_span:
            result = self._execute_window(spec, categories)
        if result.health is not None and observability.enabled():
            result.health.absorb_trace(window_span)
        self._record_window_telemetry(
            spec, result, window_span, time.perf_counter() - start
        )
        return result

    def _record_window_telemetry(
        self, spec: WindowSpec, result: WindowResult, window_span, wall_s: float
    ) -> None:
        """Update metric instruments and sink the window (when enabled).

        Metric updates happen unconditionally so a metrics-only consumer
        (no warehouse) still sees them; the sink additionally persists the
        finished ``pipeline.window`` span subtree, the per-window metric
        deltas and the health report under ``(run_id, test_month)``.
        """
        metrics = observability.get_metrics()
        metrics.counter("pipeline.windows").inc()
        metrics.gauge("pipeline.auc").set(result.auc)
        metrics.gauge("pipeline.pr_auc").set(result.pr_auc)
        metrics.histogram("pipeline.window_wall_s").observe(wall_s)
        if self.telemetry is None:
            return
        spans = [window_span] if observability.enabled() else []
        self.telemetry.record_window(
            spec.test_month, spans=spans, health=result.health
        )

    def _execute_window(
        self, spec: WindowSpec, categories: tuple[str, ...] | None
    ) -> WindowResult:
        categories = self.categories if categories is None else tuple(categories)
        health: PipelineHealthReport | None = None
        storage_before = None
        if self.allow_degraded:
            health = PipelineHealthReport()
            if self._store is not None:
                storage_before = copy.copy(self._store.health)
            source_health = getattr(self._table_source, "health", None)
            if source_health is not None:
                # Route the source's per-read accounting into this window.
                self._table_source.health = health
        needs_fit = any(c in ("F7", "F8", "F9") for c in categories)
        if needs_fit:
            try:
                self.builder.fit_extractors(
                    list(spec.train_months),
                    {m: self.labels(m + spec.lead - 1) for m in spec.train_months},
                    self._backend,
                )
            except (FeatureError, DataPlatformError) as exc:
                if health is None:
                    raise
                for family in ("F7", "F8", "F9"):
                    if family in categories:
                        health.drop_family(family, f"extractor fit failed: {exc}")
                categories = tuple(
                    c for c in categories if c not in ("F7", "F8", "F9")
                )
        if health is not None:
            months = list(spec.train_months) + [spec.test_month]
            categories = self.builder.surviving_categories(
                months, categories, health
            )
        # Warm every month's blocks through the backend before the serial
        # assembly below; a no-op after degraded-mode probing (all cached).
        self.builder.prefetch(
            list(spec.train_months) + [spec.test_month],
            categories,
            self._backend,
        )
        x_parts, y_parts = [], []
        feature_names: list[str] = []
        for month in spec.train_months:
            block = self.builder.features(month, categories)
            mask = self.windows.eligible_mask(spec, month)
            x_parts.append(block.values[mask])
            # The label of feature month t at lead k is churn in month t+k,
            # i.e. the churn-next indicator of month t+k−1.
            y_parts.append(self.labels(month + spec.lead - 1)[mask])
            feature_names = block.names
        x_train = np.vstack(x_parts)
        y_train = np.concatenate(y_parts).astype(np.int64)

        test_block = self.builder.features(spec.test_month, categories)
        test_mask = self.windows.eligible_mask(spec, spec.test_month)
        x_test = test_block.values[test_mask]
        y_test = self.labels(spec.test_month + spec.lead - 1)[test_mask].astype(
            np.int64
        )
        test_slots = np.flatnonzero(test_mask)

        predictor = self._fit(x_train, y_train)
        scores = predictor.predict_proba(x_test)
        if health is not None:
            if self._store is not None and storage_before is not None:
                health.absorb_storage(
                    _storage_delta(storage_before, self._store.health)
                )
            predictor.annotate_degradation(health.status)
        return self._result(
            spec, predictor, test_slots, scores, y_test, feature_names,
            health=health,
        )

    def run_windows(
        self,
        n_train_months: int = 1,
        lead: int = 1,
        test_months: list[int] | None = None,
        categories: tuple[str, ...] | None = None,
    ) -> list[WindowResult]:
        """Run every valid window; the paper averages these repetitions."""
        specs = self.windows.windows(n_train_months, lead, test_months)
        return [self.run_window(spec, categories) for spec in specs]

    # ------------------------------------------------------------------
    # Velocity (day-stride) variant
    # ------------------------------------------------------------------

    def run_velocity_window(
        self, test_month: int, staleness_days: int
    ) -> WindowResult:
        """One velocity window: features with a stale day offset.

        The feature vector combines (a) the monthly baseline block of the
        last *complete* month — the paper notes BSS summarizes its big
        tables monthly regardless of how often the classifier refreshes —
        and (b) daily-CDR aggregates over the 30 days ending
        ``staleness_days`` before the month boundary.  A pipeline refreshed
        every ``k`` days is on average ``k − 5`` days stale, so only the
        recency block degrades as the stride grows, giving the small
        monotone deltas of Table 5.
        """
        if not 0 <= staleness_days < DAYS_PER_MONTH:
            raise ExperimentError(
                f"staleness_days must be in [0, {DAYS_PER_MONTH}), "
                f"got {staleness_days}"
            )
        train_month = test_month - 1
        if train_month < 2 or test_month + 1 > self.world.n_months + 1:
            raise ExperimentError(
                f"velocity window needs months {train_month - 1}.."
                f"{test_month + 1} inside the simulation"
            )
        spec = WindowSpec((train_month,), test_month, lead=1)
        x_train, names = self._fast_features(train_month, staleness_days)
        x_test, _ = self._fast_features(test_month, staleness_days)
        train_mask = self.windows.eligible_mask(spec, train_month)
        test_mask = self.windows.eligible_mask(spec, test_month)
        y_train = self.labels(train_month)[train_mask].astype(np.int64)
        y_test = self.labels(test_month)[test_mask].astype(np.int64)
        predictor = self._fit(x_train[train_mask], y_train)
        scores = predictor.predict_proba(x_test[test_mask])
        return self._result(
            spec, predictor, np.flatnonzero(test_mask), scores, y_test, names
        )

    def _fast_features(
        self, month: int, staleness_days: int
    ) -> tuple[np.ndarray, list[str]]:
        """Monthly baseline of month−1 plus daily recency aggregates."""
        world = self.world
        engine = self.builder.engine
        self.builder.category("F1", month)  # ensures month views registered
        end_day = month * DAYS_PER_MONTH - staleness_days
        start_day = end_day - DAYS_PER_MONTH
        span = world.month(month).tables["cdr_daily"]
        if month > 1:
            span = world.month(month - 1).tables["cdr_daily"].concat_rows(span)
        engine.register(span, f"cdr_daily_span_m{month}")
        late_cut = end_day - 10
        agg = engine.query(
            f"""
            SELECT imsi,
                   SUM(call_cnt) AS f_call_cnt,
                   SUM(call_dur) AS f_call_dur,
                   SUM(sms_cnt) AS f_sms_cnt,
                   SUM(data_mb) AS f_data_mb,
                   SUM(CASE WHEN day > {late_cut} THEN call_dur ELSE 0 END)
                       AS f_late_call,
                   SUM(CASE WHEN day > {late_cut} THEN data_mb ELSE 0 END)
                       AS f_late_data,
                   SUM(CASE WHEN call_cnt > 0 THEN 1 ELSE 0 END)
                       AS f_active_days
            FROM cdr_daily_span_m{month}
            WHERE day > {start_day} AND day <= {end_day}
            GROUP BY imsi
            ORDER BY imsi
            """
        )
        names = [n for n in agg.schema.names if n != "imsi"]
        values = np.column_stack(
            [np.asarray(agg[n], dtype=np.float64) for n in names]
        )
        # Ratio features sharpen the recency signal.
        call_share = values[:, 4] / np.maximum(values[:, 1], 1e-9)
        data_share = values[:, 5] / np.maximum(values[:, 3], 1e-9)
        values = np.column_stack([values, call_share, data_share])
        names = names + ["f_late_call_share", "f_late_data_share"]
        # Align to slot order with zero fill for silent customers.
        slots = world.population.slots_of(agg["imsi"])
        full = np.zeros((world.population.size, values.shape[1]))
        full[slots] = values
        # Monthly baseline block of the last complete month.  IMSIs differ
        # across the month boundary only for reborn slots, which are
        # ineligible anyway, so slot alignment is sound.
        monthly = self.builder.category("F1", month - 1)
        full = np.hstack([monthly.values, full])
        names = [f"m_{n}" for n in monthly.names] + names
        return full, names

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fit(self, x: np.ndarray, y: np.ndarray) -> ChurnPredictor:
        rng = np.random.default_rng(self.seed)
        x_bal, y_bal, weights = rebalance(x, y, self.imbalance, rng)
        predictor = ChurnPredictor(
            classifier=self.classifier,
            config=self.model,
            seed=self.seed,
            backend=self._backend,
        )
        return predictor.fit(x_bal, y_bal, sample_weight=weights)

    def _result(
        self,
        spec: WindowSpec,
        predictor: ChurnPredictor,
        test_slots: np.ndarray,
        scores: np.ndarray,
        y_test: np.ndarray,
        feature_names: list[str],
        health: PipelineHealthReport | None = None,
    ) -> WindowResult:
        u_values = tuple(self.scale.scaled_u(u) for u in self.paper_u)
        return WindowResult(
            health=health,
            spec=spec,
            auc=roc_auc(y_test, scores),
            pr_auc=pr_auc(y_test, scores),
            recall_at={
                pu: recall_at(y_test, scores, su)
                for pu, su in zip(self.paper_u, u_values)
            },
            precision_at={
                pu: precision_at(y_test, scores, su)
                for pu, su in zip(self.paper_u, u_values)
            },
            test_slots=test_slots,
            scores=scores,
            labels=y_test,
            predictor=predictor,
            feature_names=list(feature_names),
        )


def _storage_delta(before, after):
    """Per-window view of a shared store's monotonically-growing counters."""
    from ..dataplat.blockstore import StorageHealth

    return StorageHealth(
        corrupt_replicas_detected=(
            after.corrupt_replicas_detected - before.corrupt_replicas_detected
        ),
        replicas_repaired=after.replicas_repaired - before.replicas_repaired,
        replicas_recreated=after.replicas_recreated - before.replicas_recreated,
        transient_read_failures=(
            after.transient_read_failures - before.transient_read_failures
        ),
        read_retries=after.read_retries - before.read_retries,
        files_healed=after.files_healed - before.files_healed,
        cache_hits=after.cache_hits - before.cache_hits,
        cache_misses=after.cache_misses - before.cache_misses,
        cache_evictions=after.cache_evictions - before.cache_evictions,
    )


def average_results(results: list[WindowResult]) -> dict:
    """Mean metrics over repeated windows (the paper reports averages)."""
    if not results:
        raise ExperimentError("no results to average")
    out = {
        "auc": float(np.mean([r.auc for r in results])),
        "pr_auc": float(np.mean([r.pr_auc for r in results])),
        "recall_at": {},
        "precision_at": {},
    }
    for u in results[0].recall_at:
        out["recall_at"][u] = float(np.mean([r.recall_at[u] for r in results]))
        out["precision_at"][u] = float(
            np.mean([r.precision_at[u] for r in results])
        )
    return out
