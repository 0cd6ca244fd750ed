"""Scatter-gather SQL over a :class:`~repro.dataplat.sharding.ShardedCatalog`.

:class:`ShardedSQLEngine` plans a statement once (against shard 0, whose
schema every shard mirrors), then splits the bound plan into the maximal
shard-executable subtrees and a central remainder:

- A **distribution** is tracked bottom-up: ``hash`` tables start out
  distributed by their shard-key column, ``replicated`` tables are whole
  everywhere, and join equalities extend the set of columns known to be
  hash-aligned.  An aligned equi-join (co-partitioning contract) or a join
  against a replicated side stays shard-local; a misaligned scan side is
  repartitioned through the :class:`~repro.dataplat.sharding.ShuffleExchange`;
  a replicated side that a LEFT join needs hash-distributed is *realigned*
  — filtered locally to its shard's key range, no data movement at all.
- Each maximal shard-executable subtree becomes a :class:`Gather` node: the
  subplan fans out per shard through
  :func:`~repro.dataplat.executor.map_traced` with the sharded catalog as
  the resident, so a task carries only ``(database, subplan, shard_id)``
  and process workers read the
  shard catalogs they inherited at fork (forked again only when a shard's
  ``Catalog.generation`` moves).  Each task runs under a fresh tracer
  whose spans travel home tagged with their shard, and the pieces
  concatenate in shard order.
- An aggregate sitting on a Gather is decomposed into per-shard partial
  aggregates merged at the gather node, reusing the PR 7 aggregate-pushdown
  algebra: ``COUNT`` → the integer sum of ``__cnt__``
  (:data:`~.functions.COUNT_MERGE`), SUM/MIN/MAX merge as themselves,
  ``AVG → SUM(partial sums) / SUM(__cnt__)``.  Non-decomposable aggregates
  (DISTINCT counts, MEDIAN, STDDEV, VARIANCE) fall back to gathering the
  input rows and aggregating centrally — still scan/join-parallel, and
  counted as ``shard.partial_fallbacks``.

Results are bit-identical to the single-catalog engine up to row order
(hash partitioning permutes rows; aggregates see identical per-group row
sequences because shard splits preserve input order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import observability
from ...errors import SQLAnalysisError
from ..executor import ExecutorBackend, map_traced, resolve_backend
from ..observability import get_metrics, span
from ..sharding import (
    _AUTO,
    DEFAULT_SPILL_BYTES,
    SHUFFLE_DATABASE,
    ShardedCatalog,
    ShuffleExchange,
    shard_of,
)
from ..table import Table
from .ast_nodes import (
    BinaryOp,
    ColumnRef,
    ExplainStatement,
    FunctionCall,
    Literal,
    SelectItem,
    Star,
)
from .cbo import _rebuild
from .engine import SQLEngine
from .executor import Executor
from .functions import AGGREGATE_FUNCTIONS, COUNT_MERGE
from .plan import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Narrow,
    PlanNode,
    Project,
    Scan,
)
from .planner import _split_conjuncts

__all__ = ["Gather", "Realign", "ShardedSQLEngine"]

#: Distribution sentinel: the subtree's full output exists on every shard.
_REPLICATED = "replicated"


@dataclass
class Gather(PlanNode):
    """Barrier between scattered and central execution.

    The ``subplan`` runs on every shard (shard 0 only when ``replicated``
    — every copy is identical, concatenating N of them would duplicate
    rows) and the results concatenate in shard order.  The coordinator
    stores the gathered table on the node before running the central
    remainder.
    """

    subplan: PlanNode
    replicated: bool = False

    #: Gathered table, attached by the coordinator at execution time.  A
    #: plain attribute (not a field) so node equality ignores it.
    result = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.subplan,)

    def _label(self) -> str:
        return "Gather(shard 0 of replicated)" if self.replicated else "Gather"


@dataclass
class Realign(PlanNode):
    """Locally filter a replicated subtree to the executing shard's keys.

    Every shard holds the subtree's full output, so hash-distributing it
    by ``column`` is a free local filter (``shard_of(column) == shard``)
    rather than a network shuffle.  Inserted when a LEFT join's replicated
    left side must align with a hash-distributed right side.
    """

    child: PlanNode
    column: str

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def _label(self) -> str:
        return f"Realign(by {self.column})"


class _ShardExecutor(Executor):
    """Per-shard executor: the stock operators plus :class:`Realign`."""

    def __init__(
        self,
        catalog,
        database: str,
        shard_id: int,
        num_shards: int,
    ) -> None:
        super().__init__(catalog, database)
        self._shard_id = shard_id
        self._num_shards = num_shards

    def _dispatch(self, node: PlanNode) -> Table:
        if isinstance(node, Realign):
            child = self._run(node.child)
            codes = shard_of(child.column(node.column), self._num_shards)
            return child.mask(codes == self._shard_id)
        return super()._dispatch(node)


class _GatherExecutor(Executor):
    """Central executor: :class:`Gather` leaves yield their stored table."""

    def _dispatch(self, node: PlanNode) -> Table:
        if isinstance(node, Gather):
            if node.result is None:
                raise SQLAnalysisError("Gather executed before scatter phase")
            return node.result
        return super()._dispatch(node)


def _execute_shard_plan(sharded: ShardedCatalog, args):
    """Run one scattered subplan on one shard (top-level for pickling).

    Its spans — rooted at a ``shard.execute`` span tagged with the shard
    id — reach the caller's trace through
    :func:`~repro.dataplat.executor.map_traced`, so scatter skew is visible
    per shard.
    """
    database, plan, shard_id = args
    with span("shard.execute", shard=shard_id) as sp:
        executor = _ShardExecutor(
            sharded.shards[shard_id],
            database,
            shard_id,
            sharded.num_shards,
        )
        table = executor.execute(plan)
        sp.incr("rows", table.num_rows)
    return table


class _Abort(Exception):
    """Raised mid-rewrite when an aggregate blocks partial decomposition."""


class _Scatterer:
    """Splits one bound plan into Gather subtrees plus a central remainder."""

    def __init__(
        self,
        catalog: ShardedCatalog,
        database: str,
        exchange: ShuffleExchange,
    ) -> None:
        self._catalog = catalog
        self._database = database
        self._exchange = exchange

    # -- distribution analysis -----------------------------------------

    def split(self, node: PlanNode) -> PlanNode:
        rewritten, dist = self._analyze(node)
        if dist is not None:
            return Gather(rewritten, replicated=dist is _REPLICATED)
        return _rebuild(node, self.split)

    def _analyze(self, node: PlanNode):
        """Return ``(node', dist)``: the shard-executable rewrite and its
        distribution, or ``(node, None)`` when the subtree must gather.

        ``dist`` is ``_REPLICATED``, or a frozenset of qualified column
        names whose equal values are proven co-located (possibly empty:
        hash-distributed, but by no surviving column).
        """
        if isinstance(node, Scan):
            return self._analyze_scan(node)
        if isinstance(node, (Filter, Narrow)):
            child, dist = self._analyze(node.child)
            if dist is None:
                return node, None
            return _rebuild(node, lambda _: child), dist
        if isinstance(node, Join):
            return self._analyze_join(node)
        if isinstance(node, Aggregate):
            return self._analyze_aggregate(node)
        if isinstance(node, Project):
            child, dist = self._analyze(node.child)
            if dist is None:
                return node, None
            out = _REPLICATED if dist is _REPLICATED else frozenset()
            return Project(child, node.items), out
        if isinstance(node, Distinct):
            child, dist = self._analyze(node.child)
            # Identical rows share every column, so a local Distinct is
            # globally correct only when rows are placed by an output
            # column (nonempty dist) — or trivially on a replicated copy.
            if dist is _REPLICATED:
                return Distinct(child), _REPLICATED
            if dist:
                return Distinct(child), dist
            return node, None
        # Sort/Limit/UnionAll and anything unknown run centrally: a
        # per-shard sort order would not survive the gather concat anyway.
        return node, None

    def _analyze_scan(self, node: Scan):
        database, name = self._resolve(node.table)
        placement = self._catalog.placement(name, database)
        if placement is None:
            return node, None
        if placement.kind == "replicated":
            return node, _REPLICATED
        key = f"{node.binding}.{placement.key}"
        return node, frozenset((key,))

    def _analyze_join(self, node: Join):
        left, ld = self._analyze(node.left)
        right, rd = self._analyze(node.right)
        if ld is None or rd is None:
            return node, None
        pairs = _equi_pairs(node, left, right)
        if ld is _REPLICATED and rd is _REPLICATED:
            joined = Join(left, right, node.kind, node.condition)
            return joined, _REPLICATED
        if rd is _REPLICATED:
            # Replicated right: both inner and LEFT run shard-local — every
            # left row sees the full right side on its own shard.
            joined = Join(left, right, node.kind, node.condition)
            return joined, _closure(ld, pairs)
        if ld is _REPLICATED:
            if node.kind == "inner":
                joined = Join(left, right, node.kind, node.condition)
                return joined, _closure(rd, pairs)
            # LEFT join from a replicated side would emit each shard's
            # unmatched copy: realign the left locally on a column the
            # join equates to the right's hash column.
            for lc, rc in pairs:
                if rc in rd:
                    left = Realign(left, lc)
                    ld = frozenset((lc,))
                    joined = Join(left, right, node.kind, node.condition)
                    return joined, _closure(ld | rd, pairs)
            return node, None
        aligned = any(lc in ld and rc in rd for lc, rc in pairs)
        if not aligned:
            left, ld, right, rd, aligned = self._try_shuffle(
                left, ld, right, rd, pairs
            )
        if not aligned:
            return node, None
        joined = Join(left, right, node.kind, node.condition)
        return joined, _closure(ld | rd, pairs)

    def _try_shuffle(self, left, ld, right, rd, pairs):
        """Repartition misaligned scan sides through the exchange.

        When one side is already hash-placed on a join column, only the
        other moves; when neither is, both repartition onto the join key
        pair — the classic shuffle join.
        """
        for lc, rc in pairs:
            if lc in ld:
                shuffled = self._shuffle_side(right, rc)
                if shuffled is not None:
                    return left, ld, shuffled, frozenset((rc,)), True
            if rc in rd:
                shuffled = self._shuffle_side(left, lc)
                if shuffled is not None:
                    return shuffled, frozenset((lc,)), right, rd, True
        for lc, rc in pairs:
            shuffled_left = self._shuffle_side(left, lc)
            if shuffled_left is None:
                continue
            shuffled_right = self._shuffle_side(right, rc)
            if shuffled_right is None:
                continue
            return (
                shuffled_left,
                frozenset((lc,)),
                shuffled_right,
                frozenset((rc,)),
                True,
            )
        return left, ld, right, rd, False

    def _shuffle_side(self, node: PlanNode, qualified_key: str):
        """Rewrite a Scan / Filter(Scan) chain to read the repartition.

        Only single-scan chains shuffle — their output is the stored table,
        so the repartition is a plain catalog-level exchange.  Anything
        richer (a pushed pre-aggregate, a join) gathers instead.
        """
        chain: list[PlanNode] = []
        cur = node
        while isinstance(cur, (Filter, Narrow)):
            chain.append(cur)
            cur = cur.child
        if not isinstance(cur, Scan):
            return None
        binding_prefix = f"{cur.binding}."
        if not qualified_key.startswith(binding_prefix):
            return None
        key = qualified_key[len(binding_prefix):]
        database, name = self._resolve(cur.table)
        placement = self._catalog.placement(name, database)
        if placement is None or placement.kind != "hash":
            return None
        columns = None if cur.columns is None else list(cur.columns)
        shuffled = self._exchange.repartition(
            name, key, database=database, columns=columns
        )
        out: PlanNode = Scan(
            f"{SHUFFLE_DATABASE}.{shuffled}",
            cur.binding,
            cur.columns,
            cur.predicate,
        )
        for wrapper in reversed(chain):
            out = _rebuild(wrapper, lambda _: out)
        return out

    def _analyze_aggregate(self, node: Aggregate):
        child, dist = self._analyze(node.child)
        if dist is None:
            return node, None
        if dist is _REPLICATED:
            agg = Aggregate(child, node.group_by, node.items, node.having)
            return agg, _REPLICATED
        keys = [k for k in node.group_by if isinstance(k, ColumnRef)]
        if len(keys) != len(node.group_by):
            return node, None
        aligned = frozenset(k.qualified for k in keys) & dist
        if not aligned:
            return node, None
        # Whole groups live on one shard: the aggregate (HAVING included)
        # runs shard-local, its output still hash-placed by the group key.
        agg = Aggregate(child, node.group_by, node.items, node.having)
        return agg, aligned

    def _resolve(self, table: str) -> tuple[str, str]:
        if "." in table:
            database, name = table.split(".", 1)
            return database, name
        return self._database, table


def _equi_pairs(node: Join, left: PlanNode, right: PlanNode):
    """(left qualified, right qualified) column pairs equated by the join."""
    left_b = _bindings(left)
    right_b = _bindings(right)
    pairs: list[tuple[str, str]] = []
    for term in _split_conjuncts(node.condition):
        if not (
            isinstance(term, BinaryOp)
            and term.op == "="
            and isinstance(term.left, ColumnRef)
            and isinstance(term.right, ColumnRef)
            and term.left.table is not None
            and term.right.table is not None
        ):
            continue
        if term.left.table in left_b and term.right.table in right_b:
            pairs.append((term.left.qualified, term.right.qualified))
        elif term.right.table in left_b and term.left.table in right_b:
            pairs.append((term.right.qualified, term.left.qualified))
    return pairs


def _bindings(node: PlanNode) -> set[str]:
    if isinstance(node, Scan):
        return {node.binding}
    out: set[str] = set()
    for child in node.children():
        out |= _bindings(child)
    return out


def _closure(dist: frozenset, pairs) -> frozenset:
    """Grow the co-located column set through join equalities."""
    cols = set(dist)
    changed = True
    while changed:
        changed = False
        for lc, rc in pairs:
            if lc in cols and rc not in cols:
                cols.add(rc)
                changed = True
            if rc in cols and lc not in cols:
                cols.add(lc)
                changed = True
    return frozenset(cols)


# ----------------------------------------------------------------------
# Partial-aggregate merge at the gather node (PR 7 algebra)
# ----------------------------------------------------------------------


def _push_partials(node: PlanNode) -> PlanNode:
    if (
        isinstance(node, Aggregate)
        and isinstance(node.child, Gather)
        and not node.child.replicated
    ):
        pushed = _decompose(node, node.child)
        if pushed is not None:
            get_metrics().counter("shard.partials_pushed").inc()
            return pushed
        # Not decomposable: the raw rows gather and aggregate centrally.
        get_metrics().counter("shard.partial_fallbacks").inc()
        observability.current_span().incr("partial_fallbacks")
    if isinstance(node, Distinct) and isinstance(node.child, Gather):
        # Pre-distinct per shard: cheap transfer shrink, still centrally
        # deduped (identical rows may live on different shards).
        inner = node.child
        if not isinstance(inner.subplan, Distinct):
            return Distinct(
                Gather(Distinct(inner.subplan), inner.replicated)
            )
        return node
    return _rebuild(node, _push_partials)


def _decompose(agg: Aggregate, gather: Gather) -> PlanNode | None:
    """Split ``agg`` into per-shard partials plus a merging aggregate.

    The merge algebra mirrors :mod:`.cbo`'s aggregate pushdown —
    ``__partial{i}__`` aliases, a ``__cnt__`` row count, ``COUNT`` merged
    as the integer sum of ``__cnt__`` — extended with AVG as total-sum over
    total-count.
    A ``__cnt__ > 0`` filter between the gather and the merge drops the
    placeholder row an *empty* shard emits for a global aggregate, whose
    zero-fill MIN/MAX would otherwise poison the merge.
    """
    if not all(isinstance(k, ColumnRef) for k in agg.group_by):
        return None
    partials: list[SelectItem] = []

    def partial_ref(call: FunctionCall) -> ColumnRef:
        alias = f"__partial{len(partials)}__"
        partials.append(SelectItem(call, alias))
        return ColumnRef(alias)

    def rewrite(expr):
        for key in agg.group_by:
            if expr == key:
                return expr
        if isinstance(expr, Literal):
            return expr
        if isinstance(expr, FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
            if expr.distinct:
                raise _Abort
            if expr.name == "COUNT":
                return FunctionCall(COUNT_MERGE, (ColumnRef("__cnt__"),))
            if expr.name == "AVG" and len(expr.args) == 1:
                total = partial_ref(FunctionCall("SUM", expr.args))
                return BinaryOp(
                    "/",
                    FunctionCall("SUM", (total,)),
                    FunctionCall("SUM", (ColumnRef("__cnt__"),)),
                )
            if (
                expr.name in ("SUM", "MIN", "MAX", COUNT_MERGE)
                and len(expr.args) == 1
            ):
                return FunctionCall(expr.name, (partial_ref(expr),))
            raise _Abort  # MEDIAN/STDDEV/VARIANCE need the raw rows
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        raise _Abort  # bare non-key columns, CASE over aggregates, ...

    try:
        items = tuple(
            SelectItem(rewrite(item.expr), item.alias) for item in agg.items
        )
        having = rewrite(agg.having) if agg.having is not None else None
    except _Abort:
        return None

    pre_items = [SelectItem(k, k.qualified) for k in agg.group_by]
    pre_items.extend(partials)
    pre_items.append(SelectItem(FunctionCall("COUNT", (Star(),)), "__cnt__"))
    pre = Aggregate(gather.subplan, agg.group_by, tuple(pre_items), None)
    nonempty = Filter(
        Gather(pre), BinaryOp(">", ColumnRef("__cnt__"), Literal(0))
    )
    return Aggregate(nonempty, agg.group_by, items, having)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class ShardedSQLEngine:
    """Drop-in SQL entry point over a :class:`ShardedCatalog`.

    Statements plan against shard 0 (schemas are identical on every shard;
    statistics differ only by the 1/N row slice, steering plan shape, not
    correctness), scatter over ``backend`` and gather centrally.  ``EXPLAIN``
    renders the scatter-gather plan — Gather barriers, Realign filters and
    shuffled scans included.
    """

    def __init__(
        self,
        catalog: ShardedCatalog,
        database: str = "default",
        backend: "ExecutorBackend | str | None" = None,
        spill_bytes: int = DEFAULT_SPILL_BYTES,
    ) -> None:
        self._sharded = catalog
        self._database = database
        self._backend = resolve_backend(backend)
        self._planner = SQLEngine(catalog.shards[0], database)
        self._exchange = ShuffleExchange(catalog, spill_bytes=spill_bytes)

    @property
    def catalog(self) -> ShardedCatalog:
        return self._sharded

    @property
    def exchange(self) -> ShuffleExchange:
        return self._exchange

    def register(self, table: Table, name: str, key=_AUTO) -> None:
        """Register a temp view, sharded like :meth:`ShardedCatalog.save`.

        By default the shard-key column decides the placement; ``key="col"``
        forces hashing on another column, ``key=None`` forces replication.
        """
        self._sharded.register_temp(
            table, name, database=self._database, key=key
        )

    def plan(self, sql: str) -> PlanNode:
        """The scatter-gather plan of ``sql`` (EXPLAIN-transparent)."""
        from .parser import parse

        stmt = parse(sql)
        if isinstance(stmt, ExplainStatement):
            stmt = stmt.statement
        return self._scatter_plan(stmt)

    def explain(self, sql: str) -> str:
        return self.plan(sql).describe()

    def query(self, sql: str) -> Table:
        from .parser import parse

        with span("shard.query", sql=sql.strip()[:80]) as sp:
            with span("sql.parse"):
                stmt = parse(sql)
            if isinstance(stmt, ExplainStatement):
                if stmt.analyze:
                    raise SQLAnalysisError(
                        "EXPLAIN ANALYZE is not supported on a sharded "
                        "engine; profile per-shard engines directly"
                    )
                plan = self._scatter_plan(stmt.statement)
                lines = plan.describe().split("\n")
                return Table.from_arrays(
                    plan=np.asarray(lines, dtype=object)
                )
            plan = self._scatter_plan(stmt)
            out = self._execute(plan)
            sp.incr("rows", out.num_rows)
        return out

    # -- internals ------------------------------------------------------

    def _scatter_plan(self, stmt) -> PlanNode:
        with span("shard.plan"):
            base = self._planner._plan_statement(stmt)
            scatterer = _Scatterer(
                self._sharded, self._database, self._exchange
            )
            plan = scatterer.split(base)
            plan = _push_partials(plan)
        return plan

    def _execute(self, plan: PlanNode) -> Table:
        metrics = get_metrics()
        for gather in _walk_gathers(plan):
            with span(
                "shard.scatter",
                backend=self._backend.name,
                replicated=gather.replicated,
            ) as sp:
                shard_ids = (
                    range(1) if gather.replicated
                    else range(self._sharded.num_shards)
                )
                tasks = [(self._database, gather.subplan, i) for i in shard_ids]
                stamp = tuple(s.generation for s in self._sharded.shards)
                pieces = map_traced(
                    self._backend, _execute_shard_plan, self._sharded, stamp, tasks
                )
                out = Table.concat(pieces)
                gather.result = out
                metrics.counter("shard.scatter_tasks").inc(len(tasks))
                metrics.counter("shard.rows_gathered").inc(out.num_rows)
                sp.incr("tasks", len(tasks))
                sp.incr("rows", out.num_rows)
        executor = _GatherExecutor(self._sharded.shards[0], self._database)
        with span("shard.merge"):
            return executor.execute(plan)


def _walk_gathers(plan: PlanNode):
    """All Gather nodes, children-first (a plan may hold several)."""
    out = []

    def visit(node: PlanNode) -> None:
        for child in node.children():
            visit(child)
        if isinstance(node, Gather):
            out.append(node)

    visit(plan)
    return out
