"""Unified wide-table assembly.

:class:`WideTableBuilder` owns one world's feature engineering: it registers
each month's raw tables as temp views of a private SQL engine, builds every
F1..F9 block on demand (caching per month), and left-join-aligns all blocks
onto the month's customer list — the paper's "unified wide table, each tuple
one customer's feature vector".

Supervised/corpus-fitted extractors (LDA topics, FM pair selection) must be
fitted with :meth:`fit_extractors` on training months before the categories
F7/F8/F9 can be built, mirroring the train/test hygiene of the sliding
window.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..datagen.simulator import TelcoWorld
from ..dataplat.executor import ExecutorBackend, map_traced, resolve_backend
from ..dataplat.observability import profiled, span
from ..dataplat.resilience import PipelineHealthReport
from ..dataplat.sql import SQLEngine
from ..errors import DataPlatformError, FeatureError
from .bss_features import build_f1
from .cs_features import build_f2
from .graph_features import GraphFeatureBuilder
from .ps_features import build_f3
from .second_order import SecondOrderSelector
from .spec import ALL_CATEGORIES, FeatureMatrix
from .topic_features import TopicFeatureExtractor


class WideTableBuilder:
    """Feature engineering facade over one :class:`TelcoWorld`.

    Parameters
    ----------
    world:
        The simulated history.
    seed:
        Seed for the fitted extractors.
    table_source:
        Optional override for where a month's raw tables come from — a
        callable ``month -> {name: Table}``.  The default reads the world's
        in-memory tables; a catalog-backed source (see
        :class:`~repro.dataplat.resilience.CatalogTableSource`) routes the
        reads through the block store instead, so storage faults and down
        feeds reach the feature layer, where :meth:`surviving_categories`
        degrades around them.
    """

    def __init__(
        self,
        world: TelcoWorld,
        seed: int = 0,
        table_source: Callable[[int], dict] | None = None,
    ) -> None:
        self._world = world
        self._seed = seed
        self._table_source = table_source
        self._engine = SQLEngine()
        self._registered: set[int] = set()
        self._cache: dict[tuple[str, int], FeatureMatrix] = {}
        self._graphs = GraphFeatureBuilder(world)
        self._topics: dict[str, TopicFeatureExtractor] = {}
        self._second_order: SecondOrderSelector | None = None
        #: Completed :meth:`fit_extractors` calls (part of the fan-out stamp).
        self._fits = 0

    @property
    def world(self) -> TelcoWorld:
        return self._world

    @property
    def engine(self) -> SQLEngine:
        """The SQL engine holding the per-month views (for inspection)."""
        return self._engine

    # ------------------------------------------------------------------
    # Fitting the supervised / corpus extractors
    # ------------------------------------------------------------------

    @profiled("feature.fit_extractors")
    def fit_extractors(
        self,
        train_months: list[int],
        train_labels: dict[int, np.ndarray],
        backend: "ExecutorBackend | str | None" = None,
    ) -> "WideTableBuilder":
        """Fit LDA vocabularies/topics and the FM pair selector.

        ``train_labels[month]`` must label *every slot* of that month
        (the builder applies eligibility filtering later, at assembly).
        The three fits — F7's LDA, F8's LDA, and the F1 blocks plus the FM
        selector — are independent, so they fan out as three tasks with
        this builder as the resident.
        """
        if not train_months:
            raise FeatureError("fit_extractors requires at least one month")
        months = list(train_months)
        for month in months:
            self._register_month(month)
        labels = np.concatenate(
            [np.asarray(train_labels[m], dtype=np.int64) for m in months]
        )
        jobs = [("F7", months, None), ("F8", months, None), ("FM", months, labels)]
        fitted = self._fan_out(_fit_extractor, jobs, backend)
        self._topics = {"F7": fitted[0], "F8": fitted[1]}
        f1_blocks, self._second_order = fitted[2]
        # Topic/pair fits changed: invalidate cached supervised blocks.
        self._cache = {
            k: v for k, v in self._cache.items() if k[0] not in ("F7", "F8", "F9")
        }
        self._cache.update(f1_blocks)
        self._fits += 1
        return self

    # ------------------------------------------------------------------
    # Category blocks
    # ------------------------------------------------------------------

    def category(self, category: str, month: int) -> FeatureMatrix:
        """One F-block for one month (cached)."""
        if category not in ALL_CATEGORIES:
            raise FeatureError(
                f"unknown category {category!r}; expected one of {ALL_CATEGORIES}"
            )
        key = (category, month)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        with span(f"feature.{category}", month=month) as sp:
            self._register_month(month)
            if category == "F1":
                block = build_f1(self._engine, month)
            elif category == "F2":
                block = build_f2(self._engine, month)
            elif category == "F3":
                block = build_f3(self._engine, month)
            elif category in ("F4", "F5", "F6"):
                block = self._graphs.build(category, month)
            elif category in ("F7", "F8"):
                extractor = self._topics.get(category)
                if extractor is None:
                    raise FeatureError(
                        f"{category} requires fit_extractors() on training months"
                    )
                block = extractor.transform(self._world, month)
            else:  # F9
                if self._second_order is None:
                    raise FeatureError(
                        "F9 requires fit_extractors() on training months"
                    )
                block = self._second_order.transform(self.category("F1", month))
            sp.incr("rows", len(block.imsi))
            sp.incr("columns", len(block.names))
        self._cache[key] = block
        return block

    def features(
        self, month: int, categories: tuple[str, ...] | list[str]
    ) -> FeatureMatrix:
        """The wide table of one month over the given categories.

        Every family block holds one row per slot of the month, in IMSI
        order; :meth:`FeatureMatrix.hstack` rejects a block whose rows
        differ.
        """
        if not categories:
            raise FeatureError("need at least one feature category")
        return FeatureMatrix.concat([self.category(c, month) for c in categories])

    def prefetch(
        self,
        months: Sequence[int],
        categories: Sequence[str],
        backend: "ExecutorBackend | str | None" = None,
    ) -> "WideTableBuilder":
        """Warm the block cache for a month window, one task per month.

        Per-month family builds are independent once the month's raw tables
        are registered, so they fan out across an
        :class:`~repro.dataplat.executor.ExecutorBackend` with this builder
        as the resident: each task builds every still-missing block of one
        month and ships the finished :class:`FeatureMatrix` objects back to
        this builder's cache.  Blocks
        are identical to what :meth:`category` would build in-process — the
        build path is shared — so prefetching is purely a wall-clock
        optimization.

        Supervised families (F7/F8/F9) are skipped when the extractors are
        not fitted yet rather than raising: prefetch is best-effort warming,
        and the strict error still comes from :meth:`category`.  Unknown
        category names do raise, matching :meth:`category`.
        """
        for category in categories:
            if category not in ALL_CATEGORIES:
                raise FeatureError(
                    f"unknown category {category!r}; expected one of "
                    f"{ALL_CATEGORIES}"
                )
        buildable = tuple(
            c
            for c in dict.fromkeys(categories)
            if (c not in ("F7", "F8") or c in self._topics)
            and (c != "F9" or self._second_order is not None)
        )
        pending = [
            (m, missing)
            for m in dict.fromkeys(months)
            if (
                missing := tuple(
                    c for c in buildable if (c, m) not in self._cache
                )
            )
        ]
        if not pending:
            return self
        # Register months in the parent first: workers inherit a complete
        # engine, and the serial path needs the views anyway.
        for month, _ in pending:
            self._register_month(month)
        resolved = resolve_backend(backend)
        with span(
            "widetable.prefetch", months=len(pending), backend=resolved.name
        ):
            for blocks in self._fan_out(_build_month_blocks, pending, resolved):
                self._cache.update(blocks)
        return self

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------

    def surviving_categories(
        self,
        months: Sequence[int],
        categories: Sequence[str],
        health: PipelineHealthReport | None = None,
    ) -> tuple[str, ...]:
        """The subset of ``categories`` buildable for *every* given month.

        A family whose block cannot be built for any month in the window
        (source table missing, feed down, storage failure) is dropped and
        recorded on ``health``, so train and test keep identical feature
        columns.  F1 — the BSS baseline the paper's system always has — is
        not droppable: its failure propagates, because a churn list without
        any features is not a degraded output, it is no output.

        Probed blocks land in the regular cache, so a follow-up
        :meth:`features` call does no extra work.
        """
        survivors: list[str] = []
        for category in categories:
            reason = None
            for month in months:
                try:
                    self.category(category, month)
                except (FeatureError, DataPlatformError) as exc:
                    reason = f"month {month}: {exc}"
                    break
            if reason is None:
                survivors.append(category)
            elif category == "F1":
                raise FeatureError(
                    f"baseline family F1 unavailable ({reason}); "
                    f"cannot degrade below the BSS baseline"
                )
            elif health is not None:
                health.drop_family(category, reason)
        if health is not None:
            health.families_used = list(survivors)
        return tuple(survivors)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _register_month(self, month: int) -> None:
        if month in self._registered:
            return
        if self._table_source is not None:
            tables = self._table_source(month)
        else:
            tables = self._world.month(month).tables
        for name, table in tables.items():
            self._engine.register(table, f"{name}_m{month}")
        self._registered.add(month)

    def _fan_out(
        self,
        fn: Callable,
        items: list,
        backend: "ExecutorBackend | str | None",
    ) -> list:
        """``[fn(self, item) for item in items]`` through a backend.

        This builder is the resident: process workers inherit it by fork
        as of its stamp — the registered months and the completed extractor
        fits, the state a task's result depends on (a block missing from a
        worker's inherited cache is rebuilt, identically).  In a worker,
        mutating the builder's caches is invisible to the parent.
        """
        stamp = (len(self._registered), self._fits)
        return map_traced(resolve_backend(backend), fn, self, stamp, items)


def _build_month_blocks(builder: WideTableBuilder, task):
    """One month's missing blocks, keyed for ``dict.update`` into a cache."""
    month, categories = task
    return {(c, month): builder.category(c, month) for c in categories}


def _fit_extractor(builder: WideTableBuilder, job):
    """One independent :meth:`WideTableBuilder.fit_extractors` fit.

    ``("F7" | "F8", months, None)`` fits that family's LDA topics;
    ``("FM", months, labels)`` builds the months' F1 blocks, stacks them
    and fits the FM pair selector, returning the blocks too so the parent
    caches them.
    """
    kind, months, labels = job
    if kind != "FM":
        return TopicFeatureExtractor(kind, seed=builder._seed).fit(
            builder._world, months
        )
    blocks = {("F1", m): builder.category("F1", m) for m in months}
    stacked = list(blocks.values())
    base = FeatureMatrix(
        np.concatenate([b.imsi for b in stacked]),
        list(stacked[0].names),
        np.vstack([b.values for b in stacked]),
    )
    selector = SecondOrderSelector(seed=builder._seed)
    selector.fit(base, labels)
    return blocks, selector
