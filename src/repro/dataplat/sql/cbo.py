"""Cost-based plan rewrites driven by binder row estimates.

Runs after the rule-based optimizer and the binder on every optimized
plan.  Three rewrites, applied in order with re-annotation between them:

1. **Join reordering** — maximal inner-join clusters are rebuilt greedy
   left-deep, starting from the smallest estimated leaf and always adding
   the connected table that minimizes the estimated intermediate size.
   Bails (keeping the heuristic order) on unqualified ON references, on
   clusters smaller than three tables, or whenever a step would need a
   cross product — the executor requires an equality per join and a cross
   product is never a win at these scales.
2. **Aggregate pushdown** (eager aggregation) — when the grouping keys of
   an aggregate over an inner equi-join restrict one side to its join
   keys, that side is pre-aggregated by those keys before the join, with
   partial SUM/MIN/MAX/AVG columns plus a ``COUNT(*)`` partial.  The upper
   aggregate combines partials (``SUM``→``SUM``, ``MIN``→``MIN``,
   ``MAX``→``MAX``, ``AVG``→ partial sums over the count partial, any
   non-distinct ``COUNT``→ the integer sum
   (:data:`~repro.dataplat.table.COUNT_MERGE`) of the count partial —
   exact because this engine's COUNT never skips NaN).  The split is
   :func:`split_partials`, which the sharded engine's gather shares.
3. **Early projection (Narrow)** — between chained joins, drop columns no
   operator above references, sized by estimated bytes saved.

Every join runs on the hash kernel (:meth:`~repro.dataplat.table.Table.join`).
Every rewrite preserves results; estimates only steer shape.  ``SELECT *``
disables all three because star expansion is sensitive to child column
order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from ..observability import get_metrics
from ..table import COUNT_MERGE
from .ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    Literal,
    SelectItem,
    Star,
    UnaryOp,
)
from .binder import Binder
from .functions import AGGREGATE_FUNCTIONS
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
)
from .planner import (
    _bindings_of,
    _child_required,
    _combine_conjuncts,
    _equi_pairs,
    _expr_bindings,
    _split_conjuncts,
)

__all__ = ["optimize_cost_based", "split_partials"]

#: Minimum estimated bytes saved before a Narrow node is inserted.
NARROW_MIN_BYTES = 32_768.0
#: Rough bytes per cell for the Narrow sizing heuristic.
BYTES_PER_CELL = 8.0
#: Pre-aggregation must shrink its side below this fraction to be worth it.
AGG_PUSH_RATIO = 0.8


def optimize_cost_based(plan: PlanNode, binder: Binder) -> PlanNode:
    """Rewrite an already-bound plan using the binder's estimates."""
    if _contains_star(plan):
        return plan
    plan = _reorder_joins(plan, binder)
    binder.annotate(plan)
    plan = _push_aggregates(plan, binder)
    binder.annotate(plan)
    plan = _insert_narrows(plan, set())
    binder.annotate(plan)
    return plan


def _contains_star(node: PlanNode) -> bool:
    if isinstance(node, (Project, Aggregate)):
        if any(isinstance(item.expr, Star) for item in node.items):
            return True
    return any(_contains_star(c) for c in node.children())


# ----------------------------------------------------------------------
# 1. Selectivity-aware join reordering
# ----------------------------------------------------------------------


def _reorder_joins(node: PlanNode, binder: Binder) -> PlanNode:
    if isinstance(node, Join) and node.kind == "inner":
        reordered = _reorder_cluster(node, binder)
        if reordered is not None:
            get_metrics().counter("planner.joins_reordered").inc()
            return reordered
    return node.map_children(_reorder_joins, binder)


def _reorder_cluster(join: Join, binder: Binder) -> PlanNode | None:
    """Greedy left-deep rebuild of one maximal inner-join cluster.

    Returns None to keep the original tree (too small, unsafe, or the
    greedy order matches the existing one).
    """
    leaves: list[PlanNode] = []
    conjuncts: list[Expr] = []

    def collect(n: PlanNode) -> None:
        if isinstance(n, Join) and n.kind == "inner":
            collect(n.left)
            collect(n.right)
            conjuncts.extend(_split_conjuncts(n.condition))
        else:
            leaves.append(n)

    collect(join)
    if len(leaves) < 3:
        return None
    conj_refs: list[tuple[Expr, set[str]]] = []
    for c in conjuncts:
        refs = _expr_bindings(c)
        if not refs:
            # Unqualified (None) or binding-free conjuncts cannot be
            # attributed to a join step safely; keep the written order.
            return None
        conj_refs.append((c, refs))
    infos = []
    for idx, leaf in enumerate(leaves):
        leaf = _reorder_joins(leaf, binder)  # nested clusters under e.g. LEFT
        binder.annotate(leaf)
        infos.append((idx, leaf, _bindings_of(leaf)))

    start = min(infos, key=lambda e: (e[1].est_rows, e[0]))
    order_idx = [start[0]]
    remaining = [e for e in infos if e is not start]
    unplaced = list(conj_refs)
    acc_bindings = set(start[2])
    acc_est = start[1].est_rows or 0.0
    steps: list[tuple[PlanNode, Expr, float]] = []
    while remaining:
        best = None
        for entry in remaining:
            idx, leaf, bindings = entry
            combined = acc_bindings | bindings
            conjs = [p for p in unplaced if p[1] <= combined]
            cond = _combine_conjuncts([c for c, _ in conjs]) if conjs else None
            if cond is None or not _equi_pairs(cond, acc_bindings, bindings)[0]:
                continue  # would be a cross product; never pick it
            est = binder.join_estimate(acc_est, leaf.est_rows or 0.0, cond)
            if best is None or (est, idx) < (best[4], best[0]):
                best = (idx, entry, conjs, cond, est)
        if best is None:
            return None  # only cross products remain; keep original plan
        idx, entry, conjs, cond, est = best
        order_idx.append(idx)
        remaining.remove(entry)
        for pair in conjs:
            unplaced.remove(pair)
        acc_bindings |= entry[2]
        acc_est = est
        steps.append((entry[1], cond, est))
    if unplaced or order_idx == sorted(order_idx):
        return None
    node: PlanNode = start[1]
    for leaf, cond, est in steps:
        node = Join(node, leaf, "inner", cond)
        node.est_rows = est
    return node


# ----------------------------------------------------------------------
# 2. Aggregate pushdown below joins (eager aggregation)
# ----------------------------------------------------------------------


def _push_aggregates(node: PlanNode, binder: Binder) -> PlanNode:
    node = node.map_children(_push_aggregates, binder)
    if (
        isinstance(node, Aggregate)
        and isinstance(node.child, Join)
        and node.child.kind == "inner"
    ):
        pushed = _try_push_aggregate(node, binder)
        if pushed is not None:
            get_metrics().counter("planner.aggregates_pushed").inc()
            return pushed
    return node


def _try_push_aggregate(agg: Aggregate, binder: Binder) -> PlanNode | None:
    join = agg.child
    assert isinstance(join, Join)
    # Residual conjuncts filter *pairs*, so they block pre-aggregation.
    equalities, residual = _equi_pairs(
        join.condition, _bindings_of(join.left), _bindings_of(join.right)
    )
    if residual:
        return None
    for side in ("right", "left"):
        pushed = _push_into_side(agg, join, equalities, side, binder)
        if pushed is not None:
            return pushed
    return None


def _push_into_side(
    agg: Aggregate,
    join: Join,
    equalities: list[tuple[ColumnRef, ColumnRef]],
    side: str,
    binder: Binder,
) -> PlanNode | None:
    s_node = join.right if side == "right" else join.left
    s_bindings = _bindings_of(s_node)
    keys: list[ColumnRef] = []
    seen: set[str] = set()
    for left_ref, right_ref in equalities:
        key = right_ref if side == "right" else left_ref
        if key.qualified not in seen:
            seen.add(key.qualified)
            keys.append(key)
    key_names = {k.qualified for k in keys}

    # Group keys restricted to this side must be join keys, so rows of one
    # pre-aggregation group can never split across output groups.
    for group_key in agg.group_by:
        if not isinstance(group_key, ColumnRef):
            return None
        refs = _expr_bindings(group_key)
        if refs is None:
            return None
        if refs <= s_bindings and group_key.qualified not in key_names:
            return None

    # Cost gate: only pre-aggregate when it actually shrinks the side.
    if s_node.est_rows is None:
        return None
    distinct_product = 1.0
    for key in keys:
        stats = binder.lookup(key.qualified)
        if stats is None or not stats.distinct:
            return None
        distinct_product *= float(stats.distinct)
    if distinct_product >= AGG_PUSH_RATIO * s_node.est_rows:
        return None

    # ``covers``: aggregating the other side's columns would need weights.
    split = split_partials(agg, keys, s_node, covers=s_bindings)
    if split is None:
        return None
    pre, items, having = split
    if side == "right":
        new_join = join.with_children(join.left, pre)
    else:
        new_join = join.with_children(pre, join.right)
    return replace(agg, child=new_join, items=items, having=having)


class _Unsplittable(Exception):
    """Raised mid-rewrite by an expression that blocks :func:`split_partials`."""


def split_partials(
    agg: Aggregate,
    keys: Sequence[Expr],
    child: PlanNode,
    covers: set[str] | None = None,
) -> tuple[Aggregate, tuple[SelectItem, ...], Expr | None] | None:
    """Split ``agg`` into a pre-aggregate of ``child`` by ``keys`` and the
    select items and HAVING that merge its partials.

    The pre-aggregate emits the keys (named by their qualified names),
    ``__partial{i}__`` partials and a ``__cnt__`` row count.  SUM, MIN,
    MAX and :data:`~repro.dataplat.table.COUNT_MERGE` merge as
    themselves, any non-distinct ``COUNT`` becomes the integer sum of
    ``__cnt__`` (exact because this engine's COUNT never skips NaN), and
    ``AVG`` becomes ``SUM(partial sums) / SUM(__cnt__)``; unary and binary
    operators, literals and ``agg``'s group keys pass through.  Returns
    None when anything else blocks the split: DISTINCT, MEDIAN, STDDEV,
    VARIANCE, a bare non-key column, a non-column key, or (with
    ``covers``) an aggregate argument not drawn from those bindings alone.
    """
    if not all(isinstance(k, ColumnRef) for k in keys):
        return None
    partials: list[SelectItem] = []

    def partial(call: FunctionCall) -> FunctionCall:
        """The call merged over its ``__partial{i}__`` column."""
        if covers is not None:
            refs = _expr_bindings(call.args[0])
            if not refs or not refs <= covers:
                raise _Unsplittable
        alias = f"__partial{len(partials)}__"
        partials.append(SelectItem(call, alias))
        return FunctionCall(call.name, (ColumnRef(alias),))

    def rewrite(expr: Expr) -> Expr:
        if expr in agg.group_by or isinstance(expr, Literal):
            return expr
        if isinstance(expr, FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
            if expr.distinct:
                raise _Unsplittable
            if expr.name == "COUNT":
                return FunctionCall(COUNT_MERGE, (ColumnRef("__cnt__"),))
            if len(expr.args) != 1:
                raise _Unsplittable
            if expr.name == "AVG":
                total = partial(FunctionCall("SUM", expr.args))
                count = FunctionCall("SUM", (ColumnRef("__cnt__"),))
                return BinaryOp("/", total, count)
            if expr.name in ("SUM", "MIN", "MAX", COUNT_MERGE):
                return partial(expr)
            raise _Unsplittable  # MEDIAN/STDDEV/VARIANCE need the raw rows
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, rewrite(expr.operand))
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        raise _Unsplittable  # bare non-key columns (FIRST semantics) et al.

    try:
        items = tuple(SelectItem(rewrite(i.expr), i.alias) for i in agg.items)
        having = rewrite(agg.having) if agg.having is not None else None
    except _Unsplittable:
        return None
    pre_items = [SelectItem(k, k.qualified) for k in keys]
    pre_items.extend(partials)
    pre_items.append(SelectItem(FunctionCall("COUNT", (Star(),)), "__cnt__"))
    return Aggregate(child, tuple(keys), tuple(pre_items), None), items, having


# ----------------------------------------------------------------------
# 3. Early projection between joins
# ----------------------------------------------------------------------


def _insert_narrows(node: PlanNode, required: set[str] | None) -> PlanNode:
    """Insert a :class:`Narrow` above each join input that carries columns
    nothing above it needs, by the planner's required-column rule."""
    needed = _child_required(node, required)
    if isinstance(node, Join):
        return node.map_children(_narrow_input, needed)
    return node.map_children(_insert_narrows, needed)


def _narrow_input(child: PlanNode, needed: set[str] | None) -> PlanNode:
    """A join input with narrows inserted in it, under one more
    :class:`Narrow` when it is itself a join that carries dead columns."""
    child = _insert_narrows(child, needed)
    if needed is None or not isinstance(child, Join) or child.est_rows is None:
        return child
    columns = _subtree_columns(child)
    if columns is None:
        return child
    # Keep a column when its qualified or bare name is needed; keeping every
    # suffix match preserves ambiguity errors for bare references above.
    kept = sorted(
        c for c in columns
        if c in needed or c.rsplit(".", 1)[-1] in needed
    )
    dropped = len(columns) - len(kept)
    if not kept or dropped == 0:
        return child
    if child.est_rows * dropped * BYTES_PER_CELL < NARROW_MIN_BYTES:
        return child
    get_metrics().counter("planner.narrows_inserted").inc()
    return Narrow(child, tuple(kept))


def _subtree_columns(node: PlanNode) -> set[str] | None:
    """Output column names of a subtree, or None when not enumerable."""
    if isinstance(node, Scan):
        if node.columns is None:
            return None
        return {f"{node.binding}.{c}" for c in node.columns}
    if isinstance(node, (Filter, Sort, Limit, Distinct)):
        return _subtree_columns(node.child)
    if isinstance(node, Narrow):
        return set(node.columns)
    if isinstance(node, Join):
        left = _subtree_columns(node.left)
        right = _subtree_columns(node.right)
        if left is None or right is None:
            return None
        return left | right
    if isinstance(node, (Project, Aggregate)):
        out: set[str] = set()
        for item in node.items:
            if item.alias:
                out.add(item.alias)
            elif isinstance(item.expr, ColumnRef):
                out.add(item.expr.name)
            else:
                return None  # positional default names; stay conservative
        return out
    return None
