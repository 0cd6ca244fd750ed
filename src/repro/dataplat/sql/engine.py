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
counters, read off the ``sql.*`` spans the executor records for each
plan node.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..catalog import Catalog
from ..observability import Span, enabled, span, trace
from ..table import Table
from .ast_nodes import ExplainStatement, SelectStatement, UnionAllStatement
from .binder import Binder
from .cbo import optimize_cost_based
from .executor import Executor, q_error
from .parser import parse
from .plan import PlanNode, format_rows
from .planner import build_plan, optimize

#: Span counters ``EXPLAIN ANALYZE`` reports per operator, exclusive of
#: the operator's children.
_STORAGE_COUNTERS = (
    "bytes_decoded",
    "cache_hits",
    "cache_misses",
    "chunks_skipped",
    "partitions_pruned",
)


class SQLEngine:
    """Run SQL over catalog tables.

    >>> engine = SQLEngine()
    >>> import numpy as np
    >>> engine.register(Table.from_arrays(x=np.array([1, 2, 3])), "t")
    >>> float(engine.query("SELECT SUM(x) AS total FROM t")["total"][0])
    6.0
    """

    def __init__(
        self, catalog: Catalog | None = None, database: str = "default"
    ) -> None:
        self._catalog = catalog if catalog is not None else Catalog()
        self._database = database

    @property
    def catalog(self) -> Catalog:
        return self._catalog

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
        binder = Binder(self._catalog, self._database)
        with span("sql.bind"):
            binder.bind(plan)
        if optimized:
            with span("sql.cbo"):
                plan = optimize_cost_based(plan, binder)
        return plan

    def explain(self, sql: str) -> str:
        """Readable bound, cost-optimized plan."""
        return self.plan(sql).describe()

    def _executor(self) -> Executor:
        return Executor(self._catalog, self._database)

    def _explain_analyze(self, plan: PlanNode) -> list[str]:
        """Execute ``plan`` and annotate it from its own ``sql.*`` spans.

        The statement runs under the active tracer, so its spans stay in
        the caller's trace, or under a private one when none is installed.
        """
        with nullcontext() if enabled() else trace():
            with span("sql.execute") as root:
                self._executor().execute(plan)
        lines: list[str] = []
        _annotate(plan, next(_operator_spans(root)), 0, lines)
        return lines

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
                    lines = self._explain_analyze(plan)
                else:
                    lines = plan.describe().split("\n")
                out = Table.from_arrays(
                    plan=np.asarray(lines, dtype=object)
                )
                sp.incr("rows", out.num_rows)
                return out
            plan = self._plan_statement(stmt)
            with span("sql.execute"):
                out = self._executor().execute(plan)
            sp.incr("rows", out.num_rows)
        return out

    def create_table_as(self, name: str, sql: str) -> Table:
        """CTAS: run ``sql`` and save the result under ``name``.

        The paper stores intermediate feature tables back into Hive so later
        stages can reuse them; this is that operation.
        """
        result = self.query(sql)
        self.catalog.save(result, name, database=self._database)
        return result


def _operator_spans(parent: Span):
    """The ``sql.*`` spans nearest below ``parent``: its plan children."""
    for child in parent.children:
        if child.name.startswith("sql."):
            yield child
        else:
            yield from _operator_spans(child)


def _storage_counters(op: Span) -> list[int]:
    """``_STORAGE_COUNTERS`` summed over ``op`` and every descendant span
    that belongs to no child operator, so a scan's decoded bytes count at
    the scan, not at every join above it."""
    totals = [0] * len(_STORAGE_COUNTERS)
    stack = [op]
    while stack:
        current = stack.pop()
        for i, name in enumerate(_STORAGE_COUNTERS):
            totals[i] += int(current.counters.get(name, 0))
        stack.extend(
            c for c in current.children if not c.name.startswith("sql.")
        )
    return totals


def _annotate(node: PlanNode, op: Span, depth: int, lines: list[str]) -> None:
    """One ``EXPLAIN ANALYZE`` line per plan node, in ``describe()`` order.

    The plan tree and its span tree are walked in lockstep: the executor
    runs every child once, in ``children()`` order, inside its parent's
    span.
    """
    actual = int(op.counters.get("rows", 0))
    est = node.est_rows
    parts = [
        f"est_rows={format_rows(est) if est is not None else '?'}",
        f"actual_rows={actual}",
    ]
    q = q_error(node, actual)
    if q is not None:
        parts.append(f"q={q:.2f}")
    parts.append(f"wall_ms={op.wall_s * 1e3:.3f}")
    parts.append(f"cpu_ms={op.cpu_s * 1e3:.3f}")
    parts.extend(
        f"{name}={value}"
        for name, value in zip(_STORAGE_COUNTERS, _storage_counters(op))
    )
    lines.append(f"{'  ' * depth}{node._label()} [{' '.join(parts)}]")
    children = zip(node.children(), _operator_spans(op), strict=True)
    for child, child_op in children:
        _annotate(child, child_op, depth + 1, lines)
