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
   partial SUM/MIN/MAX columns plus a ``COUNT(*)`` partial.  The upper
   aggregate combines partials (``SUM``→``SUM``, ``MIN``→``MIN``,
   ``MAX``→``MAX``, any non-distinct ``COUNT``→ the integer sum
   (:data:`~.functions.COUNT_MERGE`) of the count partial — exact because
   this engine's COUNT never skips NaN).
3. **Early projection (Narrow)** — between chained joins, drop columns no
   operator above references, sized by estimated bytes saved.

Every join runs on the hash kernel (:meth:`~repro.dataplat.table.Table.join`).
Every rewrite preserves results; estimates only steer shape.  ``SELECT *``
disables all three because star expansion is sensitive to child column
order.
"""

from __future__ import annotations

from ..observability import get_metrics
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
from .functions import AGGREGATE_FUNCTIONS, COUNT_MERGE
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
)
from .planner import (
    _bindings_of,
    _combine_conjuncts,
    _expr_bindings,
    _referenced_columns,
    _split_conjuncts,
)

__all__ = ["optimize_cost_based"]

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


def _rebuild(node: PlanNode, fn) -> PlanNode:
    """Structural recursion helper: ``fn`` maps each child."""
    if isinstance(node, Filter):
        return Filter(fn(node.child), node.predicate)
    if isinstance(node, Join):
        return Join(fn(node.left), fn(node.right), node.kind, node.condition)
    if isinstance(node, Project):
        return Project(fn(node.child), node.items)
    if isinstance(node, Aggregate):
        return Aggregate(fn(node.child), node.group_by, node.items, node.having)
    if isinstance(node, Sort):
        return Sort(fn(node.child), node.order_by)
    if isinstance(node, Limit):
        return Limit(fn(node.child), node.count)
    if isinstance(node, Distinct):
        return Distinct(fn(node.child))
    if isinstance(node, Narrow):
        return Narrow(fn(node.child), node.columns)
    if isinstance(node, UnionAll):
        return UnionAll(tuple(fn(c) for c in node.inputs))
    return node


# ----------------------------------------------------------------------
# 1. Selectivity-aware join reordering
# ----------------------------------------------------------------------


def _reorder_joins(node: PlanNode, binder: Binder) -> PlanNode:
    if isinstance(node, Join) and node.kind == "inner":
        reordered = _reorder_cluster(node, binder)
        if reordered is not None:
            get_metrics().counter("planner.joins_reordered").inc()
            return reordered
    return _rebuild(node, lambda c: _reorder_joins(c, binder))


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
            if not _has_cross_equality(conjs, acc_bindings, bindings):
                continue  # would be a cross product; never pick it
            cond = _combine_conjuncts([c for c, _ in conjs])
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


def _has_cross_equality(
    conjs: list[tuple[Expr, set[str]]],
    left_bindings: set[str],
    right_bindings: set[str],
) -> bool:
    for c, _ in conjs:
        if not (
            isinstance(c, BinaryOp)
            and c.op == "="
            and isinstance(c.left, ColumnRef)
            and isinstance(c.right, ColumnRef)
        ):
            continue
        lb = _expr_bindings(c.left)
        rb = _expr_bindings(c.right)
        if not lb or not rb:
            continue
        if (lb <= left_bindings and rb <= right_bindings) or (
            lb <= right_bindings and rb <= left_bindings
        ):
            return True
    return False


# ----------------------------------------------------------------------
# 2. Aggregate pushdown below joins (eager aggregation)
# ----------------------------------------------------------------------


class _PushAbort(Exception):
    """Raised while rewriting when an expression blocks the pushdown."""


def _push_aggregates(node: PlanNode, binder: Binder) -> PlanNode:
    if isinstance(node, Aggregate):
        child = _push_aggregates(node.child, binder)
        candidate = Aggregate(child, node.group_by, node.items, node.having)
        if isinstance(child, Join) and child.kind == "inner":
            pushed = _try_push_aggregate(candidate, binder)
            if pushed is not None:
                get_metrics().counter("planner.aggregates_pushed").inc()
                return pushed
        return candidate
    return _rebuild(node, lambda c: _push_aggregates(c, binder))


def _try_push_aggregate(agg: Aggregate, binder: Binder) -> PlanNode | None:
    join = agg.child
    assert isinstance(join, Join)
    left_b = _bindings_of(join.left)
    right_b = _bindings_of(join.right)
    equalities: list[tuple[ColumnRef, ColumnRef]] = []  # (left ref, right ref)
    for term in _split_conjuncts(join.condition):
        if not (
            isinstance(term, BinaryOp)
            and term.op == "="
            and isinstance(term.left, ColumnRef)
            and isinstance(term.right, ColumnRef)
        ):
            return None  # residual conjuncts filter *pairs*; cannot pre-agg
        lb = _expr_bindings(term.left)
        rb = _expr_bindings(term.right)
        if not lb or not rb:
            return None
        if lb <= left_b and rb <= right_b:
            equalities.append((term.left, term.right))
        elif lb <= right_b and rb <= left_b:
            equalities.append((term.right, term.left))
        else:
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

    partials: list[SelectItem] = []
    used_count = [False]

    def partial_ref(call: FunctionCall) -> ColumnRef:
        alias = f"__partial{len(partials)}__"
        partials.append(SelectItem(call, alias))
        return ColumnRef(alias)

    def rewrite(expr: Expr) -> Expr:
        for key in agg.group_by:
            if expr == key:
                return expr
        if isinstance(expr, Literal):
            return expr
        if isinstance(expr, FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
            if expr.distinct:
                raise _PushAbort
            if expr.name == "COUNT":
                # COUNT never skips NaN here, so any COUNT is the pair
                # count per group: the sum of per-key pre-agg row counts.
                used_count[0] = True
                return FunctionCall(COUNT_MERGE, (ColumnRef("__cnt__"),))
            if expr.name not in ("SUM", "MIN", "MAX") or len(expr.args) != 1:
                raise _PushAbort
            refs = _expr_bindings(expr.args[0])
            if not refs or not refs <= s_bindings:
                raise _PushAbort  # aggregates the other side; would need ×cnt
            return FunctionCall(expr.name, (partial_ref(expr),))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, rewrite(expr.operand))
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        raise _PushAbort  # bare non-key columns (FIRST semantics) et al.

    try:
        new_items = tuple(
            SelectItem(rewrite(item.expr), item.alias) for item in agg.items
        )
        new_having = rewrite(agg.having) if agg.having is not None else None
    except _PushAbort:
        return None

    pre_items = [SelectItem(key, key.qualified) for key in keys]
    pre_items.extend(partials)
    pre_items.append(SelectItem(FunctionCall("COUNT", (Star(),)), "__cnt__"))
    pre = Aggregate(s_node, tuple(keys), tuple(pre_items), None)
    if side == "right":
        new_join = Join(join.left, pre, "inner", join.condition)
    else:
        new_join = Join(pre, join.right, "inner", join.condition)
    return Aggregate(new_join, agg.group_by, new_items, new_having)


# ----------------------------------------------------------------------
# 3. Early projection between joins
# ----------------------------------------------------------------------


def _insert_narrows(node: PlanNode, required: set[str] | None) -> PlanNode:
    """Mirror of the planner's required-column propagation, inserting
    :class:`Narrow` above join inputs that carry dead columns."""
    own = _referenced_columns(node)
    needed = None if (own is None or required is None) else required | own
    if isinstance(node, Join):
        left = _maybe_narrow(_insert_narrows(node.left, needed), needed)
        right = _maybe_narrow(_insert_narrows(node.right, needed), needed)
        out = Join(left, right, node.kind, node.condition)
        out.est_rows = node.est_rows
        return out
    if isinstance(node, (Limit, Distinct)):
        out = _rebuild(node, lambda c: _insert_narrows(c, required))
    elif isinstance(node, UnionAll):
        out = UnionAll(tuple(_insert_narrows(c, set()) for c in node.inputs))
    else:
        out = _rebuild(node, lambda c: _insert_narrows(c, needed))
    out.est_rows = node.est_rows
    return out


def _maybe_narrow(child: PlanNode, needed: set[str] | None) -> PlanNode:
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
    narrow = Narrow(child, tuple(kept))
    narrow.est_rows = child.est_rows
    return narrow


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
