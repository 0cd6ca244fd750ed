"""Vectorized execution of logical plans over catalog tables.

Naming convention: inside a plan, columns are qualified ``binding.column``.
Expression references resolve by exact qualified match first, then by unique
``.column`` suffix match (so unqualified references work in single-table
queries and unambiguous joins).  The final :class:`~.plan.Project` /
:class:`~.plan.Aggregate` strips qualifications from output names unless the
user supplied aliases.
"""

from __future__ import annotations

import re

import numpy as np

from ...errors import SQLAnalysisError, ExecutionError
from .. import observability
from ..catalog import Catalog
from ..schema import Column, ColumnType, Schema
from ..table import Table, aggregate, factorize
from .ast_nodes import (
    Between,
    BinaryOp,
    Like,
    CaseWhen,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    SelectItem,
    Star,
    UnaryOp,
)
from .functions import AGGREGATE_FUNCTIONS, scalar_function
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
from .planner import _combine_conjuncts, _split_conjuncts

#: Buckets for the estimate-error q-factor ``(max+1)/(min+1)`` of
#: estimated vs actual rows — 1.0 means a perfect estimate.  Every
#: observer must pass these same boundaries (the registry enforces it).
ESTIMATE_ERROR_BUCKETS = (1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1000.0)


def q_error(node: PlanNode, actual: int) -> float | None:
    """Smoothed q-factor ``(max+1)/(min+1)`` of a node's estimate against
    its actual row count; None for unbound nodes and for operators that
    pass their child's estimate through (they would only repeat it)."""
    est = node.est_rows
    if est is None or not isinstance(node, (Scan, Filter, Join, Aggregate)):
        return None
    return (max(est, actual) + 1.0) / (min(est, actual) + 1.0)


def _record_estimate(node: PlanNode, actual: int) -> None:
    """Feed the planner's estimate-quality histogram for bound nodes."""
    q = q_error(node, actual)
    if q is None:
        return
    observability.get_metrics().histogram(
        "planner.estimate_error_q", boundaries=ESTIMATE_ERROR_BUCKETS
    ).observe(q)


class Executor:
    """Evaluates logical plans against a :class:`Catalog`.

    A :class:`~.plan.Scan`'s storage-level conjuncts are forwarded to
    :meth:`Catalog.scan` so zone maps can skip partitions; that never
    changes results, only how many chunks get decoded.
    """

    def __init__(self, catalog: Catalog, database: str = "default") -> None:
        self._catalog = catalog
        self._database = database

    def execute(self, plan: PlanNode) -> Table:
        return self._run(plan)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def _run(self, node: PlanNode) -> Table:
        """Execute one operator, tracing a span per plan node.

        Children are executed by the operator handlers (inside the parent's
        span), so the trace tree mirrors the plan tree, each span carrying
        the operator's output row count — the record ``EXPLAIN ANALYZE``
        renders.
        """
        if not observability.enabled():
            out = self._dispatch(node)
            _record_estimate(node, out.num_rows)
            return out
        with observability.span(f"sql.{type(node).__name__.lower()}") as sp:
            if isinstance(node, Scan):
                sp.set_tag("table", node.table)
            if node.est_rows is not None:
                sp.set_tag("est_rows", node.est_rows)
            out = self._dispatch(node)
            sp.incr("rows", out.num_rows)
            _record_estimate(node, out.num_rows)
            return out

    def _dispatch(self, node: PlanNode) -> Table:
        if isinstance(node, Scan):
            return self._scan(node)
        if isinstance(node, Filter):
            child = self._run(node.child)
            mask = _as_bool(evaluate(node.predicate, child), node.predicate)
            return child.mask(mask)
        if isinstance(node, Join):
            return self._join(node)
        if isinstance(node, Project):
            return self._project(node)
        if isinstance(node, Aggregate):
            return self._aggregate(node)
        if isinstance(node, Sort):
            child = self._run(node.child)
            if child.num_rows == 0:
                return child
            keys = []
            for item in reversed(node.order_by):
                values = np.asarray(evaluate(item.expr, child))
                if item.descending:
                    if values.dtype.kind in "if":
                        values = -values
                    else:
                        # Lexicographic descending for strings: invert ranks.
                        order = np.argsort(values, kind="stable")
                        ranks = np.empty(len(values), dtype=np.int64)
                        ranks[order] = np.arange(len(values))
                        values = -ranks
                keys.append(values)
            order = np.lexsort(keys)
            return child.take(order)
        if isinstance(node, Limit):
            return self._run(node.child).head(node.count)
        if isinstance(node, UnionAll):
            parts = [self._run(child) for child in node.inputs]
            out = parts[0]
            for part in parts[1:]:
                if part.schema.names != out.schema.names:
                    raise SQLAnalysisError(
                        f"UNION ALL column mismatch: {list(out.schema.names)} "
                        f"vs {list(part.schema.names)}"
                    )
                out = out.concat_rows(part)
            return out
        if isinstance(node, Narrow):
            child = self._run(node.child)
            wanted = set(node.columns)
            keep = [
                c for c in child.schema.names
                if c in wanted or c.rsplit(".", 1)[-1] in wanted
            ]
            return child.select(keep)
        if isinstance(node, Distinct):
            child = self._run(node.child)
            if child.num_rows == 0:
                return child
            # Each row key's first occurrence, sorted, keeps input order.
            _, _, first_idx = factorize(
                [child.column(name) for name in child.schema.names]
            )
            return child.take(np.sort(first_idx))
        raise ExecutionError(f"unknown plan node {type(node).__name__}")

    def _scan(self, node: Scan) -> Table:
        database, name = qualify(node.table, self._database)
        table = self._catalog.scan(
            name,
            database=database,
            columns=node.columns,
            predicate=list(node.predicate) or None,
        )
        return table.rename(
            {c: f"{node.binding}.{c}" for c in table.schema.names}
        )

    def _join(self, node: Join) -> Table:
        left = self._run(node.left)
        right = self._run(node.right)
        left_keys, right_keys, residual = _equi_keys(node.condition, left, right)
        if not left_keys:
            raise SQLAnalysisError(
                f"join condition must contain at least one equality between "
                f"the two sides: {node.condition!r}"
            )
        # Rename right keys to match left for the table-level join, then
        # restore both sides' columns.
        tmp_names = [f"__jk{i}__" for i in range(len(left_keys))]
        lt = left
        rt = right
        for tmp, lk in zip(tmp_names, left_keys):
            lt = lt.with_column(tmp, lt.column(lk))
        for tmp, rk in zip(tmp_names, right_keys):
            rt = rt.with_column(tmp, rt.column(rk))
        mark_matched = node.kind == "left" and residual is not None
        if mark_matched:
            # The join pads unmatched left rows with fill values, so this
            # marker comes out False exactly on the null-extended rows.
            rt = rt.with_column(
                "__matched__", np.ones(rt.num_rows, dtype=bool)
            )
        joined = lt.join(rt, on=tmp_names, how=node.kind)
        joined = joined.drop(tmp_names)
        if residual is not None:
            mask = _as_bool(evaluate(residual, joined), residual)
            if mark_matched:
                # Keep unmatched left rows; only filter genuinely matched
                # ones — the residual never saw them, so it cannot reject
                # them (they would otherwise silently vanish on any
                # residual their fill values fail).
                unmatched = ~np.asarray(joined.column("__matched__"))
                joined = joined.mask(mask | unmatched)
            else:
                joined = joined.mask(mask)
        if mark_matched:
            joined = joined.drop(["__matched__"])
        return joined

    def _project(self, node: Project) -> Table:
        child = self._run(node.child)
        return _materialize_items(node.items, child)

    def _aggregate(self, node: Aggregate) -> Table:
        child = self._run(node.child)
        n = child.num_rows
        if node.group_by:
            key_values = [np.asarray(evaluate(e, child)) for e in node.group_by]
            group_ids, n_groups, first_idx = factorize(key_values)
        else:
            group_ids = np.zeros(n, dtype=np.int64)
            n_groups = 1
            first_idx = np.zeros(1, dtype=np.intp) if n else np.empty(0, np.intp)
            if n == 0:
                n_groups = 1  # global aggregate over empty input: one row
        group_env = _GroupEnv(child, group_ids, n_groups, first_idx, node.group_by)

        columns: dict[str, np.ndarray] = {}
        cols: list[Column] = []
        for idx, item in enumerate(node.items):
            name = item.alias or _default_name(item.expr, idx)
            values = group_env.evaluate(item.expr)
            arr = np.asarray(values)
            columns[name] = arr
            cols.append(Column(name, ColumnType.infer(arr)))
        out = Table(Schema(cols), columns)
        if node.having is not None:
            mask = _as_bool(group_env.evaluate(node.having), node.having)
            out = out.mask(mask)
        return out


# ----------------------------------------------------------------------
# Expression evaluation over row-aligned tables
# ----------------------------------------------------------------------


def resolve_column(ref: ColumnRef, table: Table) -> np.ndarray:
    """Resolve a (possibly unqualified) column reference."""
    names = table.schema.names
    if ref.table is not None:
        qualified = ref.qualified
        if qualified in table.schema:
            return table.column(qualified)
        # After a projection/aggregation the qualification is gone; fall back
        # to the bare name so ORDER BY u.imsi still works above GROUP BY.
        if ref.name in table.schema:
            return table.column(ref.name)
        raise SQLAnalysisError(
            f"unknown column {qualified!r}; available: {list(names)}"
        )
    if ref.name in table.schema:
        return table.column(ref.name)
    matches = [n for n in names if n.endswith(f".{ref.name}")]
    if len(matches) == 1:
        return table.column(matches[0])
    if len(matches) > 1:
        raise SQLAnalysisError(
            f"ambiguous column {ref.name!r}: matches {matches}"
        )
    raise SQLAnalysisError(
        f"unknown column {ref.name!r}; available: {list(names)}"
    )


def evaluate(expr: Expr, table: Table) -> np.ndarray:
    """Vectorized evaluation of ``expr`` over every row of ``table``."""
    n = table.num_rows
    if isinstance(expr, Literal):
        return np.full(n, expr.value) if expr.value is not None else np.full(
            n, np.nan
        )
    if isinstance(expr, ColumnRef):
        return resolve_column(expr, table)
    if isinstance(expr, UnaryOp):
        operand = evaluate(expr.operand, table)
        if expr.op == "-":
            return -np.asarray(operand, dtype=np.float64)
        if expr.op == "NOT":
            return ~_as_bool(operand, expr.operand)
        raise SQLAnalysisError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinaryOp):
        return _binary(expr, table)
    if isinstance(expr, FunctionCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            raise SQLAnalysisError(
                f"aggregate {expr.name} used outside GROUP BY context"
            )
        fn = scalar_function(expr.name)
        args = [evaluate(a, table) for a in expr.args]
        return fn(*args)
    if isinstance(expr, CaseWhen):
        out: np.ndarray | None = None
        decided = np.zeros(n, dtype=bool)
        for cond, value in expr.branches:
            mask = _as_bool(evaluate(cond, table), cond) & ~decided
            values = np.asarray(evaluate(value, table), dtype=np.float64)
            if out is None:
                out = np.zeros(n, dtype=np.float64)
            out[mask] = values[mask] if values.ndim else values
            decided |= mask
        if expr.otherwise is not None and out is not None:
            values = np.asarray(evaluate(expr.otherwise, table), dtype=np.float64)
            rest = ~decided
            out[rest] = values[rest] if values.ndim else values
        return out if out is not None else np.zeros(n)
    if isinstance(expr, InList):
        operand = evaluate(expr.operand, table)
        result = np.zeros(n, dtype=bool)
        for item in expr.items:
            if not isinstance(item, Literal):
                raise SQLAnalysisError("IN list items must be literals")
            result |= operand == item.value
        return ~result if expr.negated else result
    if isinstance(expr, Between):
        operand = np.asarray(evaluate(expr.operand, table), dtype=np.float64)
        low = np.asarray(evaluate(expr.low, table), dtype=np.float64)
        high = np.asarray(evaluate(expr.high, table), dtype=np.float64)
        result = (operand >= low) & (operand <= high)
        return ~result if expr.negated else result
    if isinstance(expr, IsNull):
        operand = np.asarray(evaluate(expr.operand, table))
        if operand.dtype.kind == "f":
            result = np.isnan(operand)
        else:
            result = np.zeros(n, dtype=bool)
        return ~result if expr.negated else result
    if isinstance(expr, Like):
        operand = np.atleast_1d(np.asarray(evaluate(expr.operand, table)))
        result = _like_match(operand, expr.pattern)
        return ~result if expr.negated else result
    if isinstance(expr, Star):
        raise SQLAnalysisError("* is only valid in SELECT lists and COUNT(*)")
    raise SQLAnalysisError(f"cannot evaluate expression {expr!r}")


_COMPARISONS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _binary(expr: BinaryOp, table: Table) -> np.ndarray:
    if expr.op == "AND":
        return _as_bool(evaluate(expr.left, table), expr.left) & _as_bool(
            evaluate(expr.right, table), expr.right
        )
    if expr.op == "OR":
        return _as_bool(evaluate(expr.left, table), expr.left) | _as_bool(
            evaluate(expr.right, table), expr.right
        )
    left = evaluate(expr.left, table)
    right = evaluate(expr.right, table)
    if expr.op in _COMPARISONS:
        return np.asarray(_COMPARISONS[expr.op](left, right))
    lf = np.asarray(left, dtype=np.float64)
    rf = np.asarray(right, dtype=np.float64)
    if expr.op == "+":
        return lf + rf
    if expr.op == "-":
        return lf - rf
    if expr.op == "*":
        return lf * rf
    if expr.op == "/":
        out = np.zeros(np.broadcast_shapes(lf.shape, rf.shape))
        rb = np.broadcast_to(rf, out.shape)
        lb = np.broadcast_to(lf, out.shape)
        nz = rb != 0
        out[nz] = lb[nz] / rb[nz]
        return out
    if expr.op == "%":
        return np.mod(lf, np.where(rf == 0, 1, rf))
    raise SQLAnalysisError(f"unknown operator {expr.op!r}")


def _like_match(values: np.ndarray, pattern: str) -> np.ndarray:
    """Vectorized LIKE over a column.

    The common wildcard shapes — ``foo``, ``foo%``, ``%foo``, ``%foo%``
    (no ``_``, ``%`` only at the ends) — map onto whole-column equality /
    prefix / suffix / substring tests; anything else keeps the anchored
    regex per row.
    """
    strings = values.astype(str)
    if "_" not in pattern:
        body = pattern.strip("%")
        if "%" not in body:
            leading = pattern.startswith("%")
            trailing = pattern.endswith("%")
            if leading and trailing:
                return np.char.find(strings, body) >= 0
            if trailing:
                return np.char.startswith(strings, body)
            if leading:
                return np.char.endswith(strings, body)
            return strings == body
    regex = _like_regex(pattern)
    # dtype=bool matters for the 0-row case: a bare empty list would
    # default to float64 and break the caller's ``~result`` negation.
    return np.asarray([bool(regex.fullmatch(v)) for v in strings], dtype=bool)


def _like_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (%, _) into an anchored regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


def _as_bool(values: np.ndarray, expr: Expr) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind == "b":
        return arr
    if arr.dtype.kind in "if":
        return arr != 0
    raise SQLAnalysisError(f"expression is not boolean: {expr!r}")


# ----------------------------------------------------------------------
# Grouped evaluation
# ----------------------------------------------------------------------


class _GroupEnv:
    """Evaluates mixed group-key / aggregate expressions per group."""

    def __init__(
        self,
        child: Table,
        group_ids: np.ndarray,
        n_groups: int,
        first_idx: np.ndarray,
        group_by: tuple[Expr, ...],
    ) -> None:
        self._child = child
        self._group_ids = group_ids
        self._n_groups = n_groups
        self._first_idx = first_idx
        self._group_by = group_by

    def evaluate(self, expr: Expr) -> np.ndarray:
        # A bare group key: evaluate on representatives.
        for key in self._group_by:
            if expr == key:
                values = np.asarray(evaluate(key, self._child))
                return values[self._first_idx]
        if isinstance(expr, FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
            return self._aggregate_call(expr)
        if isinstance(expr, Literal):
            return np.full(self._n_groups, expr.value)
        if isinstance(expr, UnaryOp):
            operand = self.evaluate(expr.operand)
            if expr.op == "-":
                return -np.asarray(operand, dtype=np.float64)
            return ~np.asarray(operand, dtype=bool)
        if isinstance(expr, BinaryOp):
            left = self.evaluate(expr.left)
            right = self.evaluate(expr.right)
            fake = Table.from_arrays(
                __l=np.asarray(left), __r=np.asarray(right)
            )
            proxy = BinaryOp(expr.op, ColumnRef("__l"), ColumnRef("__r"))
            return evaluate(proxy, fake)
        if isinstance(expr, FunctionCall):
            fn = scalar_function(expr.name)
            args = [self.evaluate(a) for a in expr.args]
            return fn(*args)
        if isinstance(expr, ColumnRef):
            # Not a group key: take each group's first value (Hive-style
            # strictness would reject this; we allow it as FIRST semantics
            # for functionally-dependent columns).
            values = np.asarray(evaluate(expr, self._child))
            return values[self._first_idx]
        raise SQLAnalysisError(
            f"unsupported expression in aggregate context: {expr!r}"
        )

    def _aggregate_call(self, expr: FunctionCall) -> np.ndarray:
        if expr.distinct and expr.name != "COUNT":
            raise SQLAnalysisError(
                f"DISTINCT is only supported inside COUNT, not {expr.name}"
            )
        if expr.name == "COUNT" and (
            not expr.args or isinstance(expr.args[0], Star)
        ):
            values = None
        else:
            if len(expr.args) != 1:
                raise SQLAnalysisError(f"{expr.name} takes exactly one argument")
            values = np.asarray(evaluate(expr.args[0], self._child))
        return aggregate(
            expr.name, values, self._group_ids, self._n_groups, expr.distinct
        )


# ----------------------------------------------------------------------
# Projection materialization
# ----------------------------------------------------------------------


def _default_name(expr: Expr, index: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    return f"col_{index}"


def _materialize_items(items: tuple[SelectItem, ...], child: Table) -> Table:
    columns: dict[str, np.ndarray] = {}
    cols: list[Column] = []
    for idx, item in enumerate(items):
        if isinstance(item.expr, Star):
            prefix = f"{item.expr.table}." if item.expr.table else None
            for name in child.schema.names:
                if prefix is not None and not name.startswith(prefix):
                    continue
                bare = name.rsplit(".", 1)[-1]
                out_name = bare if bare not in columns else name
                arr = child.column(name)
                columns[out_name] = arr
                cols.append(Column(out_name, ColumnType.infer(arr)))
            continue
        name = item.alias or _default_name(item.expr, idx)
        arr = np.asarray(evaluate(item.expr, child))
        if arr.ndim == 0:
            arr = np.full(child.num_rows, arr[()])
        columns[name] = arr
        cols.append(Column(name, ColumnType.infer(arr)))
    return Table(Schema(cols), columns)


def _equi_keys(
    condition: Expr, left: Table, right: Table
) -> tuple[list[str], list[str], Expr | None]:
    """Split a join condition into equi-key column pairs plus a residual.

    Returns qualified column names on each side.  Conjuncts of the form
    ``a.x = b.y`` where one side resolves in the left table and the other in
    the right become join keys; everything else is evaluated post-join.
    """
    left_keys: list[str] = []
    right_keys: list[str] = []
    residual: list[Expr] = []

    def resolve_side(ref: ColumnRef) -> tuple[str, str] | None:
        """(side, qualified_name) if the ref resolves in exactly one table."""
        for side, table in (("left", left), ("right", right)):
            try:
                resolve_column(ref, table)
            except SQLAnalysisError:
                continue
            if ref.table is not None:
                return side, ref.qualified
            if ref.name in table.schema:
                return side, ref.name
            matches = [
                n for n in table.schema.names if n.endswith(f".{ref.name}")
            ]
            return side, matches[0]
        return None

    for term in _split_conjuncts(condition):
        if (
            isinstance(term, BinaryOp)
            and term.op == "="
            and isinstance(term.left, ColumnRef)
            and isinstance(term.right, ColumnRef)
        ):
            a = resolve_side(term.left)
            b = resolve_side(term.right)
            if a and b and {a[0], b[0]} == {"left", "right"}:
                if a[0] == "left":
                    left_keys.append(a[1])
                    right_keys.append(b[1])
                else:
                    left_keys.append(b[1])
                    right_keys.append(a[1])
                continue
        residual.append(term)
    residual_expr = _combine_conjuncts(residual) if residual else None
    return left_keys, right_keys, residual_expr
