"""Logical plan operators.

The planner lowers an AST into a tree of these nodes; the optimizer rewrites
the tree; the executor walks it bottom-up.  Column naming convention inside a
plan: every scan qualifies its output columns as ``binding.column`` so joins
never collide and references resolve unambiguously.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast_nodes import Expr, OrderItem, SelectItem


class PlanNode:
    """Base class for logical plan operators."""

    #: Estimated output rows, set by the binder (None = never bound).
    #: A plain attribute rather than a dataclass field so node equality
    #: (which plan-shape tests rely on) ignores the annotation.
    est_rows: float | None = None

    #: Names of the fields holding child plans, in the order the executor
    #: runs them.  A class with more than one overrides ``children()``.
    _child_fields: tuple[str, ...] = ()

    def children(self) -> tuple["PlanNode", ...]:
        fields = self._child_fields
        return (getattr(self, fields[0]),) if fields else ()

    def with_children(self, *children: "PlanNode") -> "PlanNode":
        """A copy of this node over ``children``: every other field and
        ``est_rows`` carry over, and ``self`` is left as it was."""
        fields = self._child_fields
        if len(children) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} children")
        copy = object.__new__(type(self))
        copy.__dict__ = state = self.__dict__.copy()
        for field, child in zip(fields, children):
            state[field] = child
        return copy

    def map_children(self, fn, *args) -> "PlanNode":
        """This node over ``fn(child, *args)`` of each child; ``self`` when
        every child comes back unchanged."""
        changed = False
        new = []
        for child in self.children():
            out = fn(child, *args)
            changed |= out is not child
            new.append(out)
        return self.with_children(*new) if changed else self

    def describe(self, indent: int = 0) -> str:
        """Readable plan tree (for EXPLAIN)."""
        pad = "  " * indent
        label = self._label()
        if self.est_rows is not None:
            label += f" [est_rows={format_rows(self.est_rows)}]"
        lines = [f"{pad}{label}"]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:
        return type(self).__name__


def format_rows(est: float) -> str:
    """Compact row estimate for plan labels: integers unless tiny."""
    if est >= 10 or est == int(est):
        return f"{est:.0f}"
    return f"{est:.2f}"


def qualify(table: str, database: str) -> tuple[str, str]:
    """``(database, name)`` of a table name, ``db.name`` or bare (then in
    ``database``)."""
    if "." in table:
        database, table = table.split(".", 1)
    return database, table


@dataclass
class Scan(PlanNode):
    """Read a catalog table; outputs columns qualified by ``binding``.

    ``predicate`` holds storage-level conjuncts
    (:class:`~..columnar.ScanPredicate`) the optimizer pushed down for
    zone-map pruning.  They are advisory: the scan may only *skip* chunks
    provably empty under them, and the full SQL predicate is still
    evaluated by the ``Filter`` above, so attaching them never changes
    results.
    """

    table: str
    binding: str
    columns: tuple[str, ...] | None = None  # None = all columns
    predicate: tuple = ()  # tuple[ScanPredicate, ...]

    def _label(self) -> str:
        cols = "*" if self.columns is None else ",".join(self.columns)
        label = f"Scan({self.table} as {self.binding}, cols=[{cols}])"
        if self.predicate:
            preds = " AND ".join(
                f"{p.column} {p.op} {p.value!r}" for p in self.predicate
            )
            label = label[:-1] + f", prune=[{preds}])"
        return label


@dataclass
class Filter(PlanNode):
    _child_fields = ("child",)

    child: PlanNode
    predicate: Expr

    def _label(self) -> str:
        return f"Filter({self.predicate!r})"


@dataclass
class Join(PlanNode):
    """Equi-join, run by :meth:`~repro.dataplat.table.Table.join`."""

    _child_fields = ("left", "right")

    left: PlanNode
    right: PlanNode
    kind: str  # "inner" | "left"
    condition: Expr

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def _label(self) -> str:
        return f"Join({self.kind}, on={self.condition!r})"


@dataclass
class Project(PlanNode):
    """Final projection: evaluates select items and names the outputs."""

    _child_fields = ("child",)

    child: PlanNode
    items: tuple[SelectItem, ...]

    def _label(self) -> str:
        return f"Project({len(self.items)} items)"


@dataclass
class Aggregate(PlanNode):
    """Grouped (or global) aggregation producing the select items."""

    _child_fields = ("child",)

    child: PlanNode
    group_by: tuple[Expr, ...]
    items: tuple[SelectItem, ...]
    having: Expr | None = None

    def _label(self) -> str:
        return f"Aggregate(keys={len(self.group_by)}, items={len(self.items)})"


@dataclass
class Sort(PlanNode):
    _child_fields = ("child",)

    child: PlanNode
    order_by: tuple[OrderItem, ...]

    def _label(self) -> str:
        return f"Sort({len(self.order_by)} keys)"


@dataclass
class Limit(PlanNode):
    _child_fields = ("child",)

    child: PlanNode
    count: int

    def _label(self) -> str:
        return f"Limit({self.count})"


@dataclass
class Narrow(PlanNode):
    """Early projection inserted by the cost-based optimizer.

    Keeps only ``columns`` (qualified names) of the child's output —
    used between chained joins to stop carrying key/payload columns no
    operator above references.  Selection is an intersection, so a column
    the child does not produce is ignored rather than an error.
    """

    _child_fields = ("child",)

    child: PlanNode
    columns: tuple[str, ...]

    def _label(self) -> str:
        return f"Narrow({len(self.columns)} cols)"


@dataclass
class Distinct(PlanNode):
    _child_fields = ("child",)

    child: PlanNode


@dataclass
class UnionAll(PlanNode):
    """Concatenate the outputs of several sub-plans (schemas must match)."""

    inputs: tuple[PlanNode, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return self.inputs

    def with_children(self, *children: PlanNode) -> PlanNode:
        copy = UnionAll(children)
        copy.est_rows = self.est_rows
        return copy

    def _label(self) -> str:
        return f"UnionAll({len(self.inputs)} inputs)"
