"""Public SQL entry point.

:class:`SQLEngine` glues the front-end together: it parses, plans,
optimizes, binds and executes queries against a
:class:`~repro.dataplat.catalog.Catalog`, and can register in-memory
tables (like Spark's ``createOrReplaceTempView``).

Planning pipeline per query: parse → logical plan → rule-based optimize →
**bind** (attach catalog statistics and ``est_rows``) → the **cost-based
optimizer** (join reorder, aggregate pushdown, early projection).
``EXPLAIN <select>`` returns the final plan as a one-column
table instead of executing it; ``EXPLAIN ANALYZE <select>`` executes it
and annotates every operator with actual rows, wall/CPU time and storage
counters.

Profiling (``profiling=True`` or ``REPRO_SQL_PROFILE=1``) records a
:class:`~.profile.QueryProfile` for every executed query — readable via
:attr:`SQLEngine.last_profile`, forwarded to ``profile_sink`` when set,
and feeding the optional :class:`~.feedback.CardinalityFeedback` store
(``feedback=True`` or ``REPRO_CBO_FEEDBACK=1``) that lets the binder
correct its cardinality estimates from observed run history.
"""

from __future__ import annotations

import os

import numpy as np

from ..catalog import Catalog
from ..observability import get_metrics, span
from ..table import Table
from .ast_nodes import ExplainStatement, SelectStatement, UnionAllStatement
from .binder import Binder
from .cbo import optimize_cost_based
from .executor import Executor
from .feedback import CardinalityFeedback
from .parser import parse
from .plan import PlanNode
from .planner import build_plan, optimize
from .profile import ProfileCollector, QueryProfile, annotate_plan

_ENV_TRUTHY = ("1", "true", "yes", "on")


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in _ENV_TRUTHY


class SQLEngine:
    """Run SQL over catalog tables.

    >>> engine = SQLEngine()
    >>> import numpy as np
    >>> engine.register(Table.from_arrays(x=np.array([1, 2, 3])), "t")
    >>> float(engine.query("SELECT SUM(x) AS total FROM t")["total"][0])
    6.0

    ``profiling`` defaults (``None``) to the ``REPRO_SQL_PROFILE``
    environment variable so whole test suites can flip it without touching
    call sites, and ``feedback`` likewise to ``REPRO_CBO_FEEDBACK`` (pass
    an existing :class:`~.feedback.CardinalityFeedback` to share one store
    across engines).  ``profile_sink`` is called with each finished
    :class:`~.profile.QueryProfile` (the telemetry sink's
    ``record_query_profile`` slots in directly).
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        database: str = "default",
        profiling: bool | None = None,
        profile_sink=None,
        feedback: "CardinalityFeedback | bool | None" = None,
    ) -> None:
        self._catalog = catalog if catalog is not None else Catalog()
        self._database = database
        self._profiling = (
            _env_flag("REPRO_SQL_PROFILE") if profiling is None else bool(profiling)
        )
        self._profile_sink = profile_sink
        if feedback is None:
            feedback = _env_flag("REPRO_CBO_FEEDBACK")
        if feedback is True:
            self._feedback: CardinalityFeedback | None = CardinalityFeedback()
        elif feedback is False:
            self._feedback = None
        else:
            self._feedback = feedback
        self._last_profile: QueryProfile | None = None

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def feedback(self) -> CardinalityFeedback | None:
        """The cardinality-feedback store, when enabled."""
        return self._feedback

    @property
    def last_profile(self) -> QueryProfile | None:
        """The profile of the most recent profiled query, if any."""
        return self._last_profile

    def register(self, table: Table, name: str) -> None:
        """Register an in-memory table under ``name`` (temp view).

        Like Spark's ``createOrReplaceTempView``: queryable immediately, no
        bytes written to the block store, replaced on re-registration.
        """
        self._catalog.register_temp(table, name, database=self._database)

    def plan(self, sql: str, optimized: bool = True) -> PlanNode:
        """Parse, plan and bind a query without executing it.

        ``optimized=False`` returns the raw bound plan — no rule-based or
        cost-based rewrite — which the differential tests execute as their
        oracle.  ``EXPLAIN`` prefixes are transparent here: the plan of the
        inner statement is returned.
        """
        with span("sql.parse"):
            stmt = parse(sql)
        if isinstance(stmt, ExplainStatement):
            stmt = stmt.statement
        return self._plan_statement(stmt, optimized=optimized)

    def _plan_statement(
        self,
        stmt: "SelectStatement | UnionAllStatement",
        optimized: bool = True,
    ) -> PlanNode:
        with span("sql.plan", optimized=optimized):
            plan = build_plan(stmt)
            if optimized:
                plan = optimize(plan)
        binder = Binder(self._catalog, self._database, feedback=self._feedback)
        with span("sql.bind"):
            binder.bind(plan)
        if optimized:
            with span("sql.cbo"):
                plan = optimize_cost_based(plan, binder)
        return plan

    def explain(self, sql: str) -> str:
        """Readable bound, cost-optimized plan."""
        return self.plan(sql).describe()

    def _collecting(self) -> bool:
        return (
            self._profiling
            or self._feedback is not None
            or self._profile_sink is not None
        )

    def _execute_profiled(
        self, plan: PlanNode, sql: str
    ) -> tuple[Table, QueryProfile]:
        collector = ProfileCollector(health=self._catalog.store.health)
        executor = Executor(self._catalog, self._database, profiler=collector)
        with span("sql.execute"):
            out = executor.execute(plan)
        profile = collector.finish(sql)
        self._absorb_profile(profile)
        return out, profile

    def _absorb_profile(self, profile: QueryProfile) -> None:
        self._last_profile = profile
        get_metrics().counter("sql.queries_profiled").inc()
        if self._feedback is not None:
            self._feedback.ingest(profile)
        if self._profile_sink is not None:
            self._profile_sink(profile)

    def query(self, sql: str) -> Table:
        """Execute a SELECT statement and return the result table.

        ``EXPLAIN <select>`` returns the plan text as a one-column table
        (column ``plan``, one row per plan line) without executing;
        ``EXPLAIN ANALYZE <select>`` executes the inner statement
        (discarding its rows) and returns the plan annotated with actual
        row counts, timings and storage counters per operator.
        """
        with span("sql.query", sql=sql.strip()[:80]) as sp:
            with span("sql.parse"):
                stmt = parse(sql)
            if isinstance(stmt, ExplainStatement):
                plan = self._plan_statement(stmt.statement)
                if stmt.analyze:
                    _, profile = self._execute_profiled(plan, sql)
                    lines = annotate_plan(plan, profile)
                else:
                    lines = plan.describe().split("\n")
                out = Table.from_arrays(
                    plan=np.asarray(lines, dtype=object)
                )
                sp.incr("rows", out.num_rows)
                return out
            plan = self._plan_statement(stmt)
            if self._collecting():
                out, _ = self._execute_profiled(plan, sql)
            else:
                executor = Executor(self._catalog, self._database)
                with span("sql.execute"):
                    out = executor.execute(plan)
            sp.incr("rows", out.num_rows)
        return out

    def create_table_as(self, name: str, sql: str, partition: str | None = None) -> Table:
        """CTAS: run ``sql`` and save the result under ``name``.

        The paper stores intermediate feature tables back into Hive so later
        stages can reuse them; this is that operation.
        """
        result = self.query(sql)
        self._catalog.save(result, name, database=self._database, partition=partition)
        return result
