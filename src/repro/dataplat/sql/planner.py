"""AST → logical plan, plus rule-based optimization.

Three rewrites run once each, in order — the ones that matter for the
feature-engineering workload of wide scans over monthly telco tables.
Each keeps only the operators it rewrites and passes every other node
through :meth:`~.plan.PlanNode.map_children`:

* **Predicate pushdown** — conjuncts of the WHERE clause move below joins to
  the side whose bindings they reference, shrinking join inputs.
* **Projection pruning** — scans read only the columns any operator above
  them references, which matters for the 140-column BSS tables.
* **Scan-conjunct attachment** — column-vs-literal conjuncts of a filter
  sitting directly on a scan are additionally *copied* (never moved) onto
  the :class:`~.plan.Scan` as storage-level
  :class:`~..columnar.ScanPredicate` hints, letting the catalog skip v2
  partitions whose zone maps prove them empty.  The filter stays in place,
  so pruning is semantically invisible.
"""

from __future__ import annotations

from dataclasses import replace

from ..columnar import ScanPredicate
from .ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Literal,
    OrderItem,
    SelectStatement,
    Star,
    UnionAllStatement,
)
from .plan import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
    UnionAll,
)


def build_plan(stmt: "SelectStatement | UnionAllStatement") -> PlanNode:
    """Lower a parsed statement into an unoptimized logical plan."""
    if isinstance(stmt, UnionAllStatement):
        return UnionAll(tuple(build_plan(s) for s in stmt.selects))
    node: PlanNode = Scan(stmt.table.name, stmt.table.binding)
    for join in stmt.joins:
        right: PlanNode = Scan(join.table.name, join.table.binding)
        node = Join(node, right, join.kind, join.condition)
    if stmt.where is not None:
        node = Filter(node, stmt.where)
    needs_aggregate = bool(stmt.group_by) or any(
        item.expr.has_aggregate() for item in stmt.items
    )
    if needs_aggregate:
        node = Aggregate(node, stmt.group_by, stmt.items, stmt.having)
        if stmt.distinct:
            node = Distinct(node)
        if stmt.order_by:
            node = Sort(node, stmt.order_by)
    else:
        # ORDER BY may reference source columns that the projection drops
        # (``SELECT imsi FROM cdr ORDER BY dur``), so sort below the
        # projection, first rewriting alias references to their expressions.
        order_by = tuple(
            OrderItem(_dealias(item.expr, stmt.items), item.descending)
            for item in stmt.order_by
        )
        if order_by:
            node = Sort(node, order_by)
        node = Project(node, stmt.items)
        if stmt.distinct:
            node = Distinct(node)
    if stmt.limit is not None:
        node = Limit(node, stmt.limit)
    return node


def _dealias(expr: Expr, items: tuple) -> Expr:
    """Replace a bare reference to a select alias with the aliased expr."""
    if isinstance(expr, ColumnRef) and expr.table is None:
        for item in items:
            if item.alias == expr.name:
                return item.expr
    return expr


def optimize(plan: PlanNode) -> PlanNode:
    """Apply each rewrite rule once, in order."""
    plan = _push_down_predicates(plan)
    plan = _prune_projections(plan, required=set())
    plan = _attach_scan_predicates(plan)
    return plan


# ----------------------------------------------------------------------
# Predicate pushdown
# ----------------------------------------------------------------------


def _split_conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _combine_conjuncts(conjuncts: list[Expr]) -> Expr:
    out = conjuncts[0]
    for term in conjuncts[1:]:
        out = BinaryOp("AND", out, term)
    return out


def _bindings_of(node: PlanNode) -> set[str]:
    """Table bindings visible at the output of ``node``."""
    if isinstance(node, Scan):
        return {node.binding}
    out: set[str] = set()
    for child in node.children():
        out |= _bindings_of(child)
    return out


def _expr_bindings(expr: Expr) -> set[str] | None:
    """Bindings referenced by ``expr``; None if any reference is unqualified.

    Unqualified references cannot be attributed to one join side safely, so
    predicates containing them stay above the join.
    """
    out: set[str] = set()
    for name in expr.columns():
        if "." not in name:
            return None
        out.add(name.split(".", 1)[0])
    return out


def _equi_pairs(
    condition: Expr, left_bindings: set[str], right_bindings: set[str]
) -> tuple[list[tuple[ColumnRef, ColumnRef]], list[Expr]]:
    """Split a join condition into cross-side column equalities and the rest.

    Returns ``(pairs, residual)``: each pair is ``(left ref, right ref)`` of
    a conjunct ``a.x = b.y`` whose qualified sides resolve one in each
    binding set; every other conjunct is residual.
    """
    pairs: list[tuple[ColumnRef, ColumnRef]] = []
    residual: list[Expr] = []
    for term in _split_conjuncts(condition):
        if (
            isinstance(term, BinaryOp)
            and term.op == "="
            and isinstance(term.left, ColumnRef)
            and isinstance(term.right, ColumnRef)
            and term.left.table is not None
            and term.right.table is not None
        ):
            if term.left.table in left_bindings and term.right.table in right_bindings:
                pairs.append((term.left, term.right))
                continue
            if term.right.table in left_bindings and term.left.table in right_bindings:
                pairs.append((term.right, term.left))
                continue
        residual.append(term)
    return pairs, residual


def _push_down_predicates(node: PlanNode) -> PlanNode:
    node = node.map_children(_push_down_predicates)
    if not (isinstance(node, Filter) and isinstance(node.child, Join)):
        return node
    child = node.child
    remaining: list[Expr] = []
    left_terms: list[Expr] = []
    right_terms: list[Expr] = []
    left_bindings = _bindings_of(child.left)
    right_bindings = _bindings_of(child.right)
    for term in _split_conjuncts(node.predicate):
        refs = _expr_bindings(term)
        if refs is not None and refs and refs <= left_bindings:
            left_terms.append(term)
        elif (
            refs is not None
            and refs
            and refs <= right_bindings
            and child.kind == "inner"
        ):
            # For left joins, filtering the right side early would
            # change which rows get null-extended; keep above.
            right_terms.append(term)
        else:
            remaining.append(term)
    left = child.left
    right = child.right
    if left_terms:
        left = _push_down_predicates(Filter(left, _combine_conjuncts(left_terms)))
    if right_terms:
        right = _push_down_predicates(
            Filter(right, _combine_conjuncts(right_terms))
        )
    new_join = child.with_children(left, right)
    if remaining:
        return Filter(new_join, _combine_conjuncts(remaining))
    return new_join


# ----------------------------------------------------------------------
# Projection pruning
# ----------------------------------------------------------------------


def _referenced_columns(node: PlanNode) -> set[str] | None:
    """Columns an operator itself references (qualified or bare).

    Returns None to mean "everything" (e.g. ``SELECT *``).
    """
    if isinstance(node, (Project, Aggregate)):
        out: set[str] = set()
        for item in node.items:
            if isinstance(item.expr, Star):
                return None
            out |= item.expr.columns()
        if isinstance(node, Aggregate):
            for expr in node.group_by:
                out |= expr.columns()
            if node.having is not None:
                out |= node.having.columns()
        return out
    if isinstance(node, Filter):
        return node.predicate.columns()
    if isinstance(node, Join):
        return node.condition.columns()
    if isinstance(node, Sort):
        out = set()
        for item in node.order_by:
            out |= item.expr.columns()
        return out
    return set()


def _child_required(node: PlanNode, required: set[str] | None) -> set[str] | None:
    """The columns ``node``'s children must supply when ``required`` (the
    possibly qualified names needed above ``node``; None = all) is needed
    from ``node``.

    A Project or Aggregate outputs only its items, so its children supply
    just what those reference; Limit and Distinct pass ``required``
    through; each UnionAll branch has its own projection.  The cost-based
    optimizer's early projection shares this rule.
    """
    if isinstance(node, UnionAll):
        return set()
    if isinstance(node, (Limit, Distinct)):
        return required
    own = _referenced_columns(node)
    if own is None or isinstance(node, (Project, Aggregate)):
        return own
    return None if required is None else required | own


def _prune_projections(node: PlanNode, required: set[str] | None) -> PlanNode:
    """Push the set of required columns down to the scans."""
    if not isinstance(node, Scan):
        needed = _child_required(node, required)
        return node.map_children(_prune_projections, needed)
    if required is None:
        return node
    cols = set()
    prefix = f"{node.binding}."
    for name in required:
        if name.startswith(prefix):
            cols.add(name[len(prefix):])
        elif "." not in name:
            cols.add(name)
    return replace(node, columns=tuple(sorted(cols)) if cols else None)


# ----------------------------------------------------------------------
# Scan-conjunct attachment (zone-map pruning hints)
# ----------------------------------------------------------------------

#: Comparison operators mirrored when the literal sits on the left.
_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _scan_column(ref: ColumnRef, binding: str) -> str | None:
    """Storage-level column name of a ref against one scan, else None."""
    if ref.table is not None and ref.table != binding:
        return None
    return ref.name


def _as_scan_predicate(term: Expr, binding: str) -> ScanPredicate | None:
    """One WHERE conjunct as a storage predicate, or None if not pushable.

    Only column-vs-literal shapes convert; anything else (functions,
    column-vs-column, OR trees, negated IN/BETWEEN, NULL literals whose
    NaN comparison semantics zone maps cannot mirror) stays residual-only.
    """
    if isinstance(term, BinaryOp) and term.op in _FLIP:
        if isinstance(term.left, ColumnRef) and isinstance(term.right, Literal):
            ref, op, value = term.left, term.op, term.right.value
        elif isinstance(term.left, Literal) and isinstance(term.right, ColumnRef):
            ref, op, value = term.right, _FLIP[term.op], term.left.value
        else:
            return None
        if value is None or isinstance(value, bool):
            # NULL compares as NaN; bools reach zone maps as ints via the
            # IN path only, where numpy's bool/int equivalence is explicit.
            value = int(value) if isinstance(value, bool) else None
        if value is None:
            return None
        column = _scan_column(ref, binding)
        if column is None:
            return None
        return ScanPredicate(column, op, value)
    if isinstance(term, InList) and not term.negated:
        if not isinstance(term.operand, ColumnRef):
            return None
        column = _scan_column(term.operand, binding)
        if column is None:
            return None
        values = []
        for item in term.items:
            if not isinstance(item, Literal) or item.value is None:
                return None
            value = item.value
            values.append(int(value) if isinstance(value, bool) else value)
        return ScanPredicate(column, "in", tuple(values))
    if isinstance(term, IsNull) and isinstance(term.operand, ColumnRef):
        # Zone maps track null_count, so IS [NOT] NULL prunes exactly:
        # only float NaN is null, and all-null chunks keep min/max=None.
        column = _scan_column(term.operand, binding)
        if column is None:
            return None
        return ScanPredicate(column, "notnull" if term.negated else "isnull")
    return None


def _between_predicates(term: Expr, binding: str) -> list[ScanPredicate]:
    """``x BETWEEN lo AND hi`` as a >=/<= pair (empty when not pushable)."""
    if not (isinstance(term, Between) and not term.negated):
        return []
    if not isinstance(term.operand, ColumnRef):
        return []
    column = _scan_column(term.operand, binding)
    if column is None:
        return []
    out = []
    for bound, op in ((term.low, ">="), (term.high, "<=")):
        if (
            isinstance(bound, Literal)
            and bound.value is not None
            and not isinstance(bound.value, bool)
            and not isinstance(bound.value, str)
        ):
            # The executor evaluates BETWEEN in float space, so string
            # bounds would raise there; never let them prune first.
            out.append(ScanPredicate(column, op, bound.value))
    return out


def _attach_scan_predicates(node: PlanNode) -> PlanNode:
    if not (isinstance(node, Filter) and isinstance(node.child, Scan)):
        return node.map_children(_attach_scan_predicates)
    scan = node.child
    preds: list[ScanPredicate] = []
    for term in _split_conjuncts(node.predicate):
        pred = _as_scan_predicate(term, scan.binding)
        if pred is not None:
            preds.append(pred)
        else:
            preds.extend(_between_predicates(term, scan.binding))
    if not preds:
        return node
    return node.with_children(replace(scan, predicate=tuple(preds)))
