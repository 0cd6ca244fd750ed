"""Scatter-gather SQL over a :class:`~repro.dataplat.sharding.ShardedCatalog`.

:class:`ShardedSQLEngine` is the single :class:`~.engine.SQLEngine`
pipeline — parse, plan, bind and cost-optimize against shard 0, whose
schema every shard mirrors — plus a distribution analysis that splits
the bound plan into the maximal shard-executable subtrees and a central
remainder.  The plan is a value: planning reads placements only and moves
no data.

- A **distribution** is tracked bottom-up: ``hash`` tables start out
  distributed by their shard-key column, ``replicated`` tables are whole
  everywhere, and join equalities extend the set of columns known to be
  hash-aligned.  An aligned equi-join (co-partitioning contract) or a join
  against a replicated side stays shard-local; a misaligned scan side is
  wrapped in a :class:`Shuffle` by the join key; a replicated side that a
  LEFT join needs hash-distributed is *realigned* — filtered locally to
  its shard's key range, no data movement at all.
- Each maximal shard-executable subtree becomes a :class:`Gather`
  operator.  Where the coordinator's executor meets one, it first lands
  the subplan's shuffles through the
  :class:`~repro.dataplat.sharding.ShuffleExchange` (memoized per table,
  key and columns against the source table's write count; a landing is a
  sharded ``register_temp``, so workers see it as they see any temp
  view) and then fans the subplan out per
  shard through :func:`~repro.dataplat.executor.map_traced` with the
  sharded catalog as the resident, so a task carries only
  ``(database, subplan, shard_id)`` and process workers read the shard
  catalogs they inherited at fork (forked again only when a shard's
  ``Catalog.generation`` moves).  Each task runs under a fresh tracer
  whose spans travel home tagged with their shard, and the pieces
  concatenate in shard order.
- An aggregate sitting on a Gather is decomposed into per-shard partial
  aggregates merged at the gather node by the cost-based optimizer's own
  split, :func:`~.cbo.split_partials`: ``COUNT`` → the integer sum of
  ``__cnt__`` (:data:`~repro.dataplat.table.COUNT_MERGE`), SUM/MIN/MAX
  merge as themselves, ``AVG → SUM(partial sums) / SUM(__cnt__)``.
  Non-decomposable aggregates (DISTINCT counts, MEDIAN, STDDEV, VARIANCE)
  fall back to gathering the input rows and aggregating centrally — still
  scan/join-parallel, and counted as ``shard.partial_fallbacks``.

Results are bit-identical to the single-catalog engine up to row order
(hash partitioning permutes rows; aggregates see identical per-group row
sequences because shard splits preserve input order).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .. import observability
from ...errors import SQLAnalysisError
from ..executor import ExecutorBackend, map_traced, resolve_backend
from ..observability import get_metrics, span
from ..sharding import (
    _AUTO,
    SHUFFLE_DATABASE,
    ShardedCatalog,
    ShuffleExchange,
    shard_of,
)
from ..table import Table
from .ast_nodes import BinaryOp, ColumnRef, Literal
from .cbo import split_partials
from .engine import SQLEngine
from .executor import Executor
from .plan import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Narrow,
    PlanNode,
    Project,
    Scan,
    qualify,
)
from .planner import _bindings_of, _equi_pairs

__all__ = ["Gather", "Realign", "ShardedSQLEngine", "Shuffle"]

#: Distribution sentinel: the subtree's full output exists on every shard.
_REPLICATED = "replicated"


@dataclass
class Gather(PlanNode):
    """Barrier between scattered and central execution.

    The ``subplan`` runs on every shard (shard 0 only when ``replicated``
    — every copy is identical, concatenating N of them would duplicate
    rows) and the results concatenate in shard order.
    """

    _child_fields = ("subplan",)

    subplan: PlanNode
    replicated: bool = False

    def _label(self) -> str:
        return "Gather(shard 0 of replicated)" if self.replicated else "Gather"


@dataclass
class Shuffle(PlanNode):
    """Read a hash-placed table repartitioned on another column.

    The exchange runs when the enclosing :class:`Gather` executes, not at
    planning: the gather swaps this node for a scan of
    :meth:`~repro.dataplat.sharding.ShuffleExchange.repartition`'s output,
    which every shard holds hash-placed by ``key``.
    """

    _child_fields = ("child",)

    child: Scan
    key: str

    def _label(self) -> str:
        return f"Shuffle(by {self.key})"


@dataclass
class Realign(PlanNode):
    """Locally filter a replicated subtree to the executing shard's keys.

    Every shard holds the subtree's full output, so hash-distributing it
    by ``column`` is a free local filter (``shard_of(column) == shard``)
    rather than a network shuffle.  Inserted when a LEFT join's replicated
    left side must align with a hash-distributed right side.
    """

    _child_fields = ("child",)

    child: PlanNode
    column: str

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


class _Coordinator(Executor):
    """Central executor: the stock operators plus :class:`Gather`.

    Plan nodes outside every Gather read shard 0, as the planner did.
    """

    def __init__(
        self,
        sharded: ShardedCatalog,
        database: str,
        backend: ExecutorBackend,
        exchange: ShuffleExchange,
    ) -> None:
        super().__init__(sharded.shards[0], database)
        self._sharded = sharded
        self._backend = backend
        self._exchange = exchange

    def _dispatch(self, node: PlanNode) -> Table:
        if not isinstance(node, Gather):
            return super()._dispatch(node)
        subplan = self._land(node.subplan)
        with span(
            "shard.scatter",
            backend=self._backend.name,
            replicated=node.replicated,
        ) as sp:
            shard_ids = (
                range(1) if node.replicated
                else range(self._sharded.num_shards)
            )
            tasks = [(self._database, subplan, i) for i in shard_ids]
            # Stamped after the shuffles land: a worker forked before them
            # forks again and sees the repartitioned tables.
            stamp = tuple(s.generation for s in self._sharded.shards)
            pieces = map_traced(
                self._backend, _execute_shard_plan, self._sharded, stamp, tasks
            )
            out = Table.concat(pieces)
            metrics = get_metrics()
            metrics.counter("shard.scatter_tasks").inc(len(tasks))
            metrics.counter("shard.rows_gathered").inc(out.num_rows)
            sp.incr("tasks", len(tasks))
            sp.incr("rows", out.num_rows)
        return out

    def _land(self, node: PlanNode) -> PlanNode:
        """``node`` with each :class:`Shuffle` run and replaced by a scan
        of its repartitioned table (a Realign's replicated subtree holds
        none, so it is left as is)."""
        if not isinstance(node, Shuffle):
            return node.map_children(self._land)
        scan = node.child
        database, name = qualify(scan.table, self._database)
        columns = None if scan.columns is None else list(scan.columns)
        shuffled = self._exchange.repartition(
            name, node.key, database=database, columns=columns
        )
        landed = replace(scan, table=f"{SHUFFLE_DATABASE}.{shuffled}")
        landed.est_rows = node.est_rows
        return landed


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


class _Scatterer:
    """Splits one bound plan into Gather subtrees plus a central remainder.

    The binder's ``est_rows`` are shard 0's, i.e. per shard.  Every node
    that runs on the shards keeps the estimate of the node it replaces, so
    a sharded ``EXPLAIN`` and the shard executors' q-error histogram read
    them as the single engine does.  The central nodes above a Gather see
    every shard's rows, which no estimate counts yet: they carry none.
    """

    def __init__(self, catalog: ShardedCatalog, database: str) -> None:
        self._catalog = catalog
        self._database = database

    # -- distribution analysis -----------------------------------------

    def split(self, node: PlanNode) -> PlanNode:
        rewritten, dist = self._analyze(node)
        if dist is not None:
            return Gather(rewritten, replicated=dist is _REPLICATED)
        central = node.with_children(*map(self.split, node.children()))
        central.est_rows = None
        return _push_partials(central, node.est_rows)

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
            return node.with_children(child), dist
        if isinstance(node, Join):
            return self._analyze_join(node)
        if isinstance(node, Aggregate):
            return self._analyze_aggregate(node)
        if isinstance(node, Project):
            child, dist = self._analyze(node.child)
            if dist is None:
                return node, None
            out = _REPLICATED if dist is _REPLICATED else frozenset()
            return node.with_children(child), out
        if isinstance(node, Distinct):
            child, dist = self._analyze(node.child)
            # Identical rows share every column, so a local Distinct is
            # globally correct only when rows are placed by an output
            # column (nonempty dist) — or trivially on a replicated copy.
            if dist is _REPLICATED or dist:
                return node.with_children(child), dist
            return node, None
        # Sort/Limit/UnionAll and anything unknown run centrally: a
        # per-shard sort order would not survive the gather concat anyway.
        return node, None

    def _analyze_scan(self, node: Scan):
        database, name = qualify(node.table, self._database)
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
            # A side that runs only centrally as it stands (a pre-aggregate
            # not grouped by its placement) may still shuffle onto the key.
            if _REPLICATED in (ld, rd):
                return node, None
            ld, rd = ld or frozenset(), rd or frozenset()
        refs, _ = _equi_pairs(
            node.condition, _bindings_of(left), _bindings_of(right)
        )
        pairs = [(lc.qualified, rc.qualified) for lc, rc in refs]
        if ld is _REPLICATED and rd is _REPLICATED:
            return node.with_children(left, right), _REPLICATED
        if rd is _REPLICATED:
            # Replicated right: both inner and LEFT run shard-local — every
            # left row sees the full right side on its own shard.
            return node.with_children(left, right), _closure(ld, pairs)
        if ld is _REPLICATED:
            if node.kind == "inner":
                return node.with_children(left, right), _closure(rd, pairs)
            # LEFT join from a replicated side would emit each shard's
            # unmatched copy: realign the left locally on a column the
            # join equates to the right's hash column.
            for lc, rc in pairs:
                if rc in rd:
                    realigned = Realign(left, lc)
                    if left.est_rows is not None:
                        # Keeps the rows whose key hashes to the shard.
                        shards = self._catalog.num_shards
                        realigned.est_rows = left.est_rows / shards
                    joined = node.with_children(realigned, right)
                    return joined, _closure(rd | {lc}, pairs)
            return node, None
        aligned = any(lc in ld and rc in rd for lc, rc in pairs)
        if not aligned:
            left, ld, right, rd, aligned = self._try_shuffle(
                left, ld, right, rd, pairs
            )
        if not aligned:
            return node, None
        return node.with_children(left, right), _closure(ld | rd, pairs)

    def _try_shuffle(self, left, ld, right, rd, pairs):
        """Shuffle misaligned scan sides onto the join key.

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
        """Wrap the scan of a single-scan chain in a :class:`Shuffle`.

        Only chains of Filter, Narrow and Aggregate over one scan shuffle —
        the repartition is then a plain catalog-level exchange of the
        stored table.  An aggregate must group by the key: each group then
        lands whole on one shard, so it runs above the shuffle (a pushed
        pre-aggregate, ``Aggregate(Filter(Shuffle(Scan)))``).  Anything
        richer (a join) gathers instead.
        """
        if isinstance(node, Aggregate) and not any(
            isinstance(k, ColumnRef) and k.qualified == qualified_key
            for k in node.group_by
        ):
            return None
        if isinstance(node, (Filter, Narrow, Aggregate)):
            child = self._shuffle_side(node.child, qualified_key)
            if child is None:
                return None
            return node.with_children(child)
        if not isinstance(node, Scan):
            return None
        prefix = f"{node.binding}."
        if not qualified_key.startswith(prefix):
            return None
        database, name = qualify(node.table, self._database)
        placement = self._catalog.placement(name, database)
        if placement is None or placement.kind != "hash":
            return None
        shuffle = Shuffle(node, qualified_key[len(prefix):])
        shuffle.est_rows = node.est_rows
        return shuffle

    def _analyze_aggregate(self, node: Aggregate):
        child, dist = self._analyze(node.child)
        if dist is None:
            return node, None
        if dist is _REPLICATED:
            return node.with_children(child), _REPLICATED
        keys = [k for k in node.group_by if isinstance(k, ColumnRef)]
        if len(keys) != len(node.group_by):
            return node, None
        aligned = frozenset(k.qualified for k in keys) & dist
        if not aligned:
            return node, None
        # Whole groups live on one shard: the aggregate (HAVING included)
        # runs shard-local, its output still hash-placed by the group key.
        return node.with_children(child), aligned


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
# Partial-aggregate merge at the gather node (the CBO's split)
# ----------------------------------------------------------------------


def _push_partials(node: PlanNode, est_rows: float | None) -> PlanNode:
    """Move a central Aggregate's or Distinct's work below its Gather.

    ``est_rows`` is the binder's estimate of the node ``node`` rebuilds;
    the per-shard part that is pushed keeps it.
    """
    if (
        isinstance(node, Aggregate)
        and isinstance(node.child, Gather)
        and not node.child.replicated
    ):
        pushed = _decompose(node, node.child, est_rows)
        if pushed is not None:
            get_metrics().counter("shard.partials_pushed").inc()
            return pushed
        # Not decomposable: the raw rows gather and aggregate centrally.
        get_metrics().counter("shard.partial_fallbacks").inc()
        observability.current_span().incr("partial_fallbacks")
        return node
    if (
        isinstance(node, Distinct)
        and isinstance(node.child, Gather)
        and not isinstance(node.child.subplan, Distinct)
    ):
        # Pre-distinct per shard: cheap transfer shrink, still centrally
        # deduped (identical rows may live on different shards).
        local = node.with_children(node.child.subplan)
        local.est_rows = est_rows
        return node.with_children(node.child.with_children(local))
    return node


def _decompose(
    agg: Aggregate, gather: Gather, est_rows: float | None
) -> PlanNode | None:
    """Split ``agg`` into per-shard partials plus a merging aggregate.

    A ``__cnt__ > 0`` filter between the gather and the merge drops the
    placeholder row an *empty* shard emits for a global aggregate, whose
    zero-fill MIN/MAX would otherwise poison the merge.
    """
    split = split_partials(agg, agg.group_by, gather.subplan)
    if split is None:
        return None
    pre, items, having = split
    pre.est_rows = est_rows
    nonempty = Filter(
        Gather(pre), BinaryOp(">", ColumnRef("__cnt__"), Literal(0))
    )
    return replace(agg, child=nonempty, items=items, having=having)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class ShardedSQLEngine(SQLEngine):
    """Drop-in :class:`~.engine.SQLEngine` over a :class:`ShardedCatalog`.

    Statements plan against shard 0 (schemas are identical on every shard;
    statistics differ only by the 1/N row slice, steering plan shape, not
    correctness), scatter over ``backend`` and gather centrally.  ``EXPLAIN``
    renders the scatter-gather plan — Gather barriers, Realign filters and
    Shuffle exchanges included — without running any of it.
    """

    def __init__(
        self,
        catalog: ShardedCatalog,
        database: str = "default",
        backend: "ExecutorBackend | str | None" = None,
    ) -> None:
        super().__init__(catalog.shards[0], database)
        self._sharded = catalog
        self._backend = resolve_backend(backend)
        self._exchange = ShuffleExchange(catalog)

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

    def _plan_statement(self, stmt, optimized: bool = True) -> PlanNode:
        with span("shard.plan"):
            plan = super()._plan_statement(stmt, optimized)
            return _Scatterer(self._sharded, self._database).split(plan)

    def _executor(self) -> Executor:
        return _Coordinator(
            self._sharded, self._database, self._backend, self._exchange
        )

    def _explain_analyze(self, plan: PlanNode) -> list[str]:
        raise SQLAnalysisError(
            "EXPLAIN ANALYZE is not supported on a sharded engine; profile "
            "per-shard engines directly"
        )
