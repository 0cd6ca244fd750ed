"""Binder: annotate logical plans with catalog statistics and row estimates.

Mirrors the opteryx-style pipeline (rewriter → logical planner → heuristic
optimizer → **binder** → cost-based optimizer): after the rule-based passes
run, the binder walks the plan, resolves every :class:`~.plan.Scan` against
the catalog, attaches :class:`~..columnar.TableStats` (row count, per-column
distinct / min / max / null fraction rolled up from zone maps), and computes
an ``est_rows`` annotation bottom-up for every node.  The estimates feed
:mod:`.cbo` and surface in ``describe()``/EXPLAIN and tracing spans so
estimate quality is inspectable.

Estimation is deliberately classical (System-R style):

* equality selectivity ``1/distinct``, ranges by linear interpolation into
  the ``[min, max]`` span, ``IS NULL`` by the null fraction;
* conjunction multiplies selectivities (independence assumption), which
  keeps estimates *monotone*: ``est(A AND B) <= est(A)``;
* joins divide the cross product by the larger key distinct count;
* anything unknown falls back to a conservative constant — missing stats
  must never make a plan worse than the heuristic one, only estimates.

All estimates are clamped non-negative and carry no correctness weight:
they may only influence join order, aggregate pushdown and early
projection.
"""

from __future__ import annotations

from ...errors import CatalogError
from ..catalog import Catalog
from ..columnar import ColumnStats, TableStats
from ..observability import get_metrics
from .ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from .plan import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    Narrow,
    PlanNode,
    Project,
    Scan,
    Sort,
    UnionAll,
    qualify,
)
from .planner import _split_conjuncts

__all__ = [
    "Binder",
    "DEFAULT_ROWS",
    "selectivity",
    "join_selectivity",
]

#: Fallback row count for scans without statistics.
DEFAULT_ROWS = 1000.0

#: Fallback selectivities when column statistics are missing.
DEFAULT_EQ_SEL = 0.1
DEFAULT_RANGE_SEL = 1.0 / 3.0
DEFAULT_BETWEEN_SEL = 0.25
DEFAULT_LIKE_SEL = 0.25
DEFAULT_NULL_SEL = 0.05
DEFAULT_BOOL_SEL = 1.0 / 3.0


def _clamp(sel: float) -> float:
    """Selectivities live in [0, 1]."""
    return min(1.0, max(0.0, sel))


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _eq_selectivity(stats: ColumnStats | None, value=None) -> float:
    if stats is None:
        return DEFAULT_EQ_SEL
    if stats.rows == 0:
        return 0.0
    if (
        value is not None
        and _numeric(value)
        and _numeric(stats.min)
        and _numeric(stats.max)
        and not (stats.min <= value <= stats.max)
    ):
        return 0.0
    if stats.distinct:
        return _clamp(1.0 / stats.distinct)
    return DEFAULT_EQ_SEL


def _range_selectivity(stats: ColumnStats | None, op: str, value) -> float:
    """``col < value`` etc. by linear interpolation into the value span."""
    if (
        stats is None
        or not _numeric(value)
        or not _numeric(stats.min)
        or not _numeric(stats.max)
    ):
        return DEFAULT_RANGE_SEL
    lo, hi = float(stats.min), float(stats.max)
    if hi <= lo:
        # Constant column: the comparison either keeps all rows or none.
        if op in ("<", "<="):
            kept = lo < value or (op == "<=" and lo == value)
        else:
            kept = lo > value or (op == ">=" and lo == value)
        return 1.0 if kept else 0.0
    frac = _clamp((float(value) - lo) / (hi - lo))
    return frac if op in ("<", "<=") else 1.0 - frac


def selectivity(expr: Expr, lookup) -> float:
    """Estimated fraction of rows satisfying ``expr``.

    ``lookup`` maps a (possibly qualified) column name to
    :class:`ColumnStats` or None.  Always in ``[0, 1]``; unknown shapes
    fall back to :data:`DEFAULT_BOOL_SEL`.
    """
    if isinstance(expr, BinaryOp):
        if expr.op == "AND":
            return _clamp(
                selectivity(expr.left, lookup) * selectivity(expr.right, lookup)
            )
        if expr.op == "OR":
            a = selectivity(expr.left, lookup)
            b = selectivity(expr.right, lookup)
            return _clamp(a + b - a * b)
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            ref, op, lit = _comparison_parts(expr)
            if ref is None:
                return DEFAULT_BOOL_SEL
            stats = lookup(ref.qualified)
            if op == "=":
                return _eq_selectivity(stats, lit)
            if op == "<>":
                return _clamp(1.0 - _eq_selectivity(stats, lit))
            return _clamp(_range_selectivity(stats, op, lit))
        return DEFAULT_BOOL_SEL
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        return _clamp(1.0 - selectivity(expr.operand, lookup))
    if isinstance(expr, InList):
        sel = DEFAULT_BOOL_SEL
        if isinstance(expr.operand, ColumnRef):
            stats = lookup(expr.operand.qualified)
            per_item = _eq_selectivity(stats)
            sel = _clamp(len(expr.items) * per_item)
        return _clamp(1.0 - sel) if expr.negated else sel
    if isinstance(expr, Between):
        sel = _between_selectivity(expr, lookup)
        return _clamp(1.0 - sel) if expr.negated else sel
    if isinstance(expr, IsNull):
        sel = DEFAULT_NULL_SEL
        if isinstance(expr.operand, ColumnRef):
            stats = lookup(expr.operand.qualified)
            if stats is not None:
                sel = _clamp(stats.null_fraction)
        return _clamp(1.0 - sel) if expr.negated else sel
    if isinstance(expr, Like):
        sel = DEFAULT_LIKE_SEL
        if "%" not in expr.pattern and "_" not in expr.pattern:
            # No wildcard: LIKE degenerates to equality.
            if isinstance(expr.operand, ColumnRef):
                sel = _eq_selectivity(lookup(expr.operand.qualified))
            else:
                sel = DEFAULT_EQ_SEL
        return _clamp(1.0 - sel) if expr.negated else sel
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            return 1.0 if expr.value else 0.0
        if _numeric(expr.value):
            return 1.0 if expr.value != 0 else 0.0
        return DEFAULT_BOOL_SEL
    return DEFAULT_BOOL_SEL


def _comparison_parts(expr: BinaryOp):
    """``(ref, op, literal)`` of a column-vs-literal comparison, else Nones.

    The operator is mirrored when the literal sits on the left.
    """
    flip = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        return expr.left, expr.op, expr.right.value
    if isinstance(expr.left, Literal) and isinstance(expr.right, ColumnRef):
        return expr.right, flip[expr.op], expr.left.value
    return None, expr.op, None


def _between_selectivity(expr: Between, lookup) -> float:
    if not (
        isinstance(expr.operand, ColumnRef)
        and isinstance(expr.low, Literal)
        and isinstance(expr.high, Literal)
        and _numeric(expr.low.value)
        and _numeric(expr.high.value)
    ):
        return DEFAULT_BETWEEN_SEL
    stats = lookup(expr.operand.qualified)
    if (
        stats is None
        or not _numeric(stats.min)
        or not _numeric(stats.max)
        or float(stats.max) <= float(stats.min)
    ):
        return DEFAULT_BETWEEN_SEL
    lo, hi = float(stats.min), float(stats.max)
    a = max(lo, float(expr.low.value))
    b = min(hi, float(expr.high.value))
    if b < a:
        return 0.0
    return _clamp((b - a) / (hi - lo))


def join_selectivity(
    left_stats: ColumnStats | None,
    right_stats: ColumnStats | None,
    fallback_rows: float,
) -> float:
    """Selectivity of one equi-join conjunct: ``1 / max(d_left, d_right)``.

    With both distinct counts unknown, assume the key is unique on the
    smaller side (the textbook primary-key/foreign-key default).
    """
    distincts = [
        float(s.distinct)
        for s in (left_stats, right_stats)
        if s is not None and s.distinct
    ]
    if distincts:
        return 1.0 / max(max(distincts), 1.0)
    return 1.0 / max(fallback_rows, 1.0)


class Binder:
    """Resolves scans against the catalog and annotates row estimates.

    One binder instance accumulates a column-statistics namespace
    (``binding.column`` → :class:`ColumnStats`) across every plan it
    binds, so the cost-based optimizer can re-bind rewritten trees with
    the same statistics view.
    """

    def __init__(self, catalog: Catalog, database: str = "default") -> None:
        self._catalog = catalog
        self._database = database
        self._columns: dict[str, ColumnStats] = {}

    def bind(self, plan: PlanNode) -> PlanNode:
        """Annotate ``plan`` (in place) with ``est_rows``; returns it."""
        self.annotate(plan)
        get_metrics().counter("planner.plans_bound").inc()
        return plan

    def annotate(self, plan: PlanNode) -> PlanNode:
        """Like :meth:`bind` but without the ``plans_bound`` metric — the
        cost-based optimizer re-annotates rewritten trees with this."""
        self._annotate(plan)
        return plan

    # ------------------------------------------------------------------
    # Statistics lookup
    # ------------------------------------------------------------------

    def lookup(self, name: str) -> ColumnStats | None:
        """Column stats by qualified name, with unique-suffix fallback."""
        stats = self._columns.get(name)
        if stats is not None:
            return stats
        if "." not in name:
            matches = [
                v for k, v in self._columns.items()
                if k.endswith(f".{name}")
            ]
            if len(matches) == 1:
                return matches[0]
        return None

    def table_stats(self, table: str) -> TableStats | None:
        """Catalog stats for ``table`` (``db.name`` or bare) or None."""
        database, name = qualify(table, self._database)
        try:
            return self._catalog.table_stats(name, database=database)
        except CatalogError:
            return None

    # ------------------------------------------------------------------
    # Cardinality estimation
    # ------------------------------------------------------------------

    def _annotate(self, node: PlanNode) -> float:
        node.est_rows = max(0.0, self._estimate(node))
        return node.est_rows

    def _estimate(self, node: PlanNode) -> float:
        if isinstance(node, Scan):
            stats = self.table_stats(node.table)
            if stats is not None:
                for col, cstats in stats.columns.items():
                    self._columns[f"{node.binding}.{col}"] = cstats
                return float(stats.rows)
            return DEFAULT_ROWS
        if isinstance(node, Filter):
            child = self._annotate(node.child)
            return child * selectivity(node.predicate, self.lookup)
        if isinstance(node, Join):
            left = self._annotate(node.left)
            right = self._annotate(node.right)
            est = self.join_estimate(left, right, node.condition)
            if node.kind == "left":
                # Every left row survives at least once.
                est = max(est, left)
            return est
        if isinstance(node, Aggregate):
            child = self._annotate(node.child)
            if not node.group_by:
                return 1.0
            groups = 1.0
            for key in node.group_by:
                if isinstance(key, ColumnRef):
                    stats = self.lookup(key.qualified)
                    if stats is not None and stats.distinct:
                        groups *= float(stats.distinct)
                        continue
                groups *= max(1.0, child ** 0.5)
            return min(child, groups) if child else 0.0
        if isinstance(node, (Project, Narrow, Sort, Distinct)):
            return self._annotate(node.child)
        if isinstance(node, Limit):
            return min(self._annotate(node.child), float(node.count))
        if isinstance(node, UnionAll):
            return sum(self._annotate(c) for c in node.inputs)
        for child in node.children():
            self._annotate(child)
        return DEFAULT_ROWS

    def join_estimate(
        self, left_rows: float, right_rows: float, condition: Expr
    ) -> float:
        """Estimated output rows of an inner equi-join."""
        est = left_rows * right_rows
        fallback = max(min(left_rows, right_rows), 1.0)
        for term in _split_conjuncts(condition):
            if (
                isinstance(term, BinaryOp)
                and term.op == "="
                and isinstance(term.left, ColumnRef)
                and isinstance(term.right, ColumnRef)
            ):
                est *= join_selectivity(
                    self.lookup(term.left.qualified),
                    self.lookup(term.right.qualified),
                    fallback,
                )
            else:
                est *= selectivity(term, self.lookup)
        return est
