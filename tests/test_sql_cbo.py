"""Tests for the cost-based optimizer: reordering, pushdown, strategies."""

import numpy as np
import pytest

from repro.dataplat import observability
from repro.dataplat.catalog import Catalog
from repro.dataplat.observability import MetricsRegistry
from repro.dataplat.sql import SQLEngine
from repro.dataplat.sql.executor import Executor
from repro.dataplat.sql.plan import Aggregate, Join, Narrow, Scan
from repro.dataplat.schema import ColumnType
from repro.dataplat.table import Table


@pytest.fixture
def metrics():
    previous = observability.set_metrics(MetricsRegistry())
    try:
        yield observability.get_metrics()
    finally:
        observability.set_metrics(previous)


def _walk(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def _rows(table):
    cols = [table[c] for c in table.schema.names]
    out = []
    for row in zip(*cols):
        out.append(
            tuple(
                round(float(v), 9)
                if isinstance(v, (int, float, np.number))
                and not isinstance(v, (bool, np.bool_))
                else v
                for v in row
            )
        )
    # Mixed-type columns (object keys) aren't orderable; sort by a
    # type-tagged string key so parity checks stay total.
    return sorted(
        out, key=lambda r: tuple((type(v).__name__, str(v)) for v in r)
    )


def _raw(engine, sql):
    """``sql`` answered by its raw plan (no rule-based or cost-based
    rewrite) — the oracle every optimized result is compared against."""
    return Executor(engine.catalog).execute(engine.plan(sql, optimized=False))


def _star_world(n_facts=3000, n_dims=500):
    """A skewed fact table plus two shrinking dimensions."""
    rng = np.random.default_rng(11)
    engine = SQLEngine(Catalog())
    facts = Table.from_arrays(
        cust=rng.integers(0, n_dims, size=n_facts),
        dur=rng.integers(0, 100, size=n_facts).astype(np.float64),
    )
    custs = Table.from_arrays(
        id=np.arange(n_dims, dtype=np.int64),
        offer=rng.integers(0, 8, size=n_dims),
    )
    kinds = np.asarray(
        ["promo", "std", "std", "std", "std", "std", "std", "std"],
        dtype=object,
    )
    offers = Table.from_arrays(id=np.arange(8, dtype=np.int64), kind=kinds)
    for name, table in (("calls", facts), ("custs", custs), ("offers", offers)):
        engine.register(table, name)
    return engine


JOIN_SQL = (
    "SELECT o.kind AS kind, SUM(c.dur) AS total, COUNT(*) AS n "
    "FROM calls c JOIN custs u ON c.cust = u.id "
    "JOIN offers o ON u.offer = o.id "
    "WHERE o.kind = 'promo' GROUP BY o.kind"
)


class TestJoinReordering:
    def test_smallest_filtered_leaf_becomes_build_side(self, metrics):
        engine = _star_world()
        plan = engine.plan(JOIN_SQL)
        joins = [n for n in _walk(plan) if isinstance(n, Join)]
        assert len(joins) == 2
        # The deepest join must start from the filtered offers dimension,
        # not from the fact table the query was written around.
        deepest = [j for j in joins if not any(
            isinstance(c, Join) for c in (j.left, j.right)
        )][0]
        bindings = {
            n.binding for n in _walk(deepest) if isinstance(n, Scan)
        }
        assert "o" in bindings and "c" not in bindings
        assert metrics.counter("planner.joins_reordered").value == 1

    def test_reordered_results_match_raw_plan(self):
        engine = _star_world()
        assert _rows(_raw(engine, JOIN_SQL)) == _rows(engine.query(JOIN_SQL))

    def test_two_table_join_not_reordered(self, metrics):
        engine = _star_world()
        engine.plan(
            "SELECT c.dur FROM calls c JOIN custs u ON c.cust = u.id"
        )
        assert metrics.counter("planner.plans_bound").value == 1
        assert metrics.counter("planner.joins_reordered").value == 0

    def test_left_join_cluster_kept_in_written_order(self, metrics):
        engine = _star_world()
        sql = (
            "SELECT c.dur, o.kind FROM calls c "
            "LEFT JOIN custs u ON c.cust = u.id "
            "LEFT JOIN offers o ON u.offer = o.id"
        )
        plan = engine.plan(sql)
        joins = [n for n in _walk(plan) if isinstance(n, Join)]
        assert all(j.kind == "left" for j in joins)
        assert metrics.counter("planner.joins_reordered").value == 0

    def test_select_star_disables_structural_rewrites(self, metrics):
        engine = _star_world()
        sql = (
            "SELECT * FROM calls c JOIN custs u ON c.cust = u.id "
            "JOIN offers o ON u.offer = o.id WHERE o.kind = 'promo'"
        )
        plan = engine.plan(sql)
        assert metrics.counter("planner.joins_reordered").value == 0
        assert not any(isinstance(n, Narrow) for n in _walk(plan))
        assert _rows(_raw(engine, sql)) == _rows(engine.query(sql))


class TestAggregatePushdown:
    def test_pre_aggregate_appears_below_join(self, metrics):
        engine = _star_world()
        plan = engine.plan(JOIN_SQL)
        aggs = [n for n in _walk(plan) if isinstance(n, Aggregate)]
        assert len(aggs) == 2
        assert metrics.counter("planner.aggregates_pushed").value == 1
        # The pre-aggregation groups the fact side by its join key and
        # carries the count partial.
        pre = [a for a in aggs if any(
            item.alias == "__cnt__" for item in a.items
        )][0]
        inner_bindings = {
            n.binding for n in _walk(pre) if isinstance(n, Scan)
        }
        assert inner_bindings == {"c"}

    @pytest.mark.parametrize(
        "exprs",
        [
            "SUM(c.dur) AS a, COUNT(*) AS b",
            "MIN(c.dur) AS a, MAX(c.dur) AS b",
            "COUNT(c.dur) AS a, SUM(c.dur) + COUNT(*) AS b",
        ],
    )
    def test_pushed_aggregates_match_unpushed(self, exprs):
        engine = _star_world()
        sql = (
            f"SELECT o.kind AS kind, {exprs} "
            "FROM calls c JOIN custs u ON c.cust = u.id "
            "JOIN offers o ON u.offer = o.id GROUP BY o.kind"
        )
        assert _rows(_raw(engine, sql)) == _rows(engine.query(sql))

    def test_having_rewritten_with_partials(self):
        engine = _star_world()
        sql = (
            "SELECT u.offer AS offer, SUM(c.dur) AS total "
            "FROM calls c JOIN custs u ON c.cust = u.id "
            "GROUP BY u.offer HAVING COUNT(*) > 300"
        )
        assert _rows(_raw(engine, sql)) == _rows(engine.query(sql))

    def test_count_is_an_integer_through_the_pre_aggregate(self, metrics):
        rng = np.random.default_rng(3)
        engine = SQLEngine(Catalog())
        engine.register(
            Table.from_arrays(
                uid=np.arange(1000, dtype=np.int64),
                town_id=rng.integers(0, 20, size=1000),
            ),
            "users",
        )
        engine.register(
            Table.from_arrays(
                town_id=np.arange(20, dtype=np.int64),
                region=np.asarray(
                    [f"r{i % 4}" for i in range(20)], dtype=object
                ),
            ),
            "towns",
        )
        sql = (
            "SELECT t.region, COUNT(*) AS n FROM users u "
            "JOIN towns t ON u.town_id = t.town_id GROUP BY t.region"
        )
        plan = engine.plan(sql)
        assert any(
            item.alias == "__cnt__"
            for node in _walk(plan)
            if isinstance(node, Aggregate)
            for item in node.items
        ), plan.describe()
        assert metrics.counter("planner.aggregates_pushed").value == 1
        out = engine.query(sql)
        raw = _raw(engine, sql)
        assert out.schema["n"].ctype is ColumnType.INT
        assert np.asarray(out["n"]).dtype == np.int64
        assert out.schema == raw.schema
        assert _rows(out) == _rows(raw)

    def test_distinct_aggregate_not_pushed(self, metrics):
        engine = _star_world()
        sql = (
            "SELECT o.kind AS kind, COUNT(DISTINCT c.cust) AS n "
            "FROM calls c JOIN custs u ON c.cust = u.id "
            "JOIN offers o ON u.offer = o.id GROUP BY o.kind"
        )
        engine.plan(sql)
        assert metrics.counter("planner.aggregates_pushed").value == 0

    def test_avg_not_pushed_but_correct(self, metrics):
        engine = _star_world()
        sql = (
            "SELECT o.kind AS kind, AVG(c.dur) AS mean "
            "FROM calls c JOIN custs u ON c.cust = u.id "
            "JOIN offers o ON u.offer = o.id GROUP BY o.kind"
        )
        engine.plan(sql)
        assert metrics.counter("planner.aggregates_pushed").value == 0
        assert _rows(_raw(engine, sql)) == _rows(engine.query(sql))


class TestEarlyProjection:
    def test_narrow_inserted_and_results_unchanged(self, metrics):
        rng = np.random.default_rng(5)
        n = 30_000
        engine = SQLEngine(Catalog())
        wide = Table.from_arrays(
            k=rng.integers(0, 50, size=n),
            a=rng.normal(size=n),
            b=rng.normal(size=n),
            c=rng.normal(size=n),
        )
        dim = Table.from_arrays(
            k=np.arange(50, dtype=np.int64),
            grp=np.arange(50, dtype=np.int64) % 5,
        )
        other = Table.from_arrays(
            grp=np.arange(5, dtype=np.int64),
            label=np.asarray(list("vwxyz"), dtype=object),
        )
        engine.register(wide, "wide")
        engine.register(dim, "dim")
        engine.register(other, "other")
        sql = (
            "SELECT o.label AS label, SUM(w.a) AS s "
            "FROM wide w JOIN dim d ON w.k = d.k "
            "JOIN other o ON d.grp = o.grp "
            "GROUP BY o.label ORDER BY label"
        )
        plan = engine.plan(sql)
        # b and c never used above the join: a Narrow (or the pre-agg
        # rewrite) must keep them out of the join intermediates.
        assert _rows(_raw(engine, sql)) == _rows(engine.query(sql))

    def test_narrow_drops_used_up_join_keys(self, metrics):
        # Scan-level pruning already strips columns no operator uses at
        # all; Narrow earns its keep on join *intermediates* still hauling
        # a join key that no operator above references.  Here a.k2/c.k2
        # only connect the first join — the second join and projection
        # never read them, so the large intermediate should shed them.
        rng = np.random.default_rng(6)
        n = 30_000
        engine = SQLEngine(Catalog())
        ta = Table.from_arrays(
            k=rng.integers(0, 500, size=n),
            k2=rng.integers(0, 20, size=n),
            v1=rng.normal(size=n),
        )
        tb = Table.from_arrays(k=np.arange(500, dtype=np.int64))
        tc = Table.from_arrays(
            k2=np.arange(20, dtype=np.int64),
            w=np.arange(20, dtype=np.float64),
        )
        engine.register(ta, "ta")
        engine.register(tb, "tb")
        engine.register(tc, "tc")
        sql = (
            "SELECT a.v1, c.w FROM ta a JOIN tb b ON a.k = b.k "
            "JOIN tc c ON a.k2 = c.k2 WHERE c.w < 5"
        )
        plan = engine.plan(sql)
        narrows = [n for n in _walk(plan) if isinstance(n, Narrow)]
        assert narrows, plan.describe()
        assert metrics.counter("planner.narrows_inserted").value >= 1
        for narrow in narrows:
            names = {col.rsplit(".", 1)[-1] for col in narrow.columns}
            assert "k2" not in names
        assert _rows(_raw(engine, sql)) == _rows(engine.query(sql))
