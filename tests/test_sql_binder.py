"""Unit and property tests for the binder's statistics and row estimates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplat.catalog import Catalog
from repro.dataplat.columnar import ColumnStats
from repro.dataplat.sql import SQLEngine
from repro.dataplat.sql.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.dataplat.sql.binder import (
    DEFAULT_ROWS,
    Binder,
    join_selectivity,
    selectivity,
)
from repro.dataplat.sql.parser import parse
from repro.dataplat.sql.plan import Filter, Join, Scan
from repro.dataplat.sql.planner import build_plan, optimize
from repro.dataplat.table import Table


def col(name, table=None):
    return ColumnRef(name, table)


def eq(name, value):
    return BinaryOp("=", col(name), Literal(value))


def make_lookup(**stats):
    return lambda name: stats.get(name.rsplit(".", 1)[-1])


NO_STATS = make_lookup()


class TestSelectivity:
    def test_equality_uses_distinct_count(self):
        lookup = make_lookup(k=ColumnStats(100, 0, 0, 99, distinct=20.0))
        assert selectivity(eq("k", 5), lookup) == pytest.approx(1 / 20)

    def test_equality_outside_bounds_is_zero(self):
        lookup = make_lookup(k=ColumnStats(100, 0, 0, 9, distinct=10.0))
        assert selectivity(eq("k", 42), lookup) == 0.0

    def test_equality_without_stats_falls_back(self):
        assert selectivity(eq("k", 5), NO_STATS) == pytest.approx(0.1)

    def test_range_interpolates_into_span(self):
        lookup = make_lookup(k=ColumnStats(100, 0, 0.0, 100.0, distinct=None))
        lt = BinaryOp("<", col("k"), Literal(25.0))
        gt = BinaryOp(">", col("k"), Literal(25.0))
        assert selectivity(lt, lookup) == pytest.approx(0.25)
        assert selectivity(gt, lookup) == pytest.approx(0.75)

    def test_flipped_literal_comparison(self):
        # ``25 > k`` means ``k < 25``.
        lookup = make_lookup(k=ColumnStats(100, 0, 0.0, 100.0))
        expr = BinaryOp(">", Literal(25.0), col("k"))
        assert selectivity(expr, lookup) == pytest.approx(0.25)

    def test_and_multiplies_or_unions(self):
        lookup = make_lookup(k=ColumnStats(100, 0, 0.0, 100.0))
        a = BinaryOp("<", col("k"), Literal(50.0))  # 0.5
        b = BinaryOp(">", col("k"), Literal(75.0))  # 0.25
        assert selectivity(BinaryOp("AND", a, b), lookup) == pytest.approx(
            0.125
        )
        assert selectivity(BinaryOp("OR", a, b), lookup) == pytest.approx(
            0.5 + 0.25 - 0.125
        )

    def test_not_complements(self):
        lookup = make_lookup(k=ColumnStats(100, 0, 0.0, 100.0))
        a = BinaryOp("<", col("k"), Literal(25.0))
        assert selectivity(UnaryOp("NOT", a), lookup) == pytest.approx(0.75)

    def test_is_null_uses_null_fraction(self):
        lookup = make_lookup(v=ColumnStats(100, 30))
        assert selectivity(IsNull(col("v")), lookup) == pytest.approx(0.3)
        assert selectivity(
            IsNull(col("v"), negated=True), lookup
        ) == pytest.approx(0.7)

    def test_in_list_scales_equality(self):
        lookup = make_lookup(k=ColumnStats(100, 0, 0, 99, distinct=10.0))
        expr = InList(col("k"), (Literal(1), Literal(2), Literal(3)))
        assert selectivity(expr, lookup) == pytest.approx(0.3)

    def test_between_span_ratio(self):
        lookup = make_lookup(k=ColumnStats(100, 0, 0.0, 100.0))
        expr = Between(col("k"), Literal(10.0), Literal(35.0))
        assert selectivity(expr, lookup) == pytest.approx(0.25)

    def test_between_outside_span_is_zero(self):
        lookup = make_lookup(k=ColumnStats(100, 0, 0.0, 100.0))
        expr = Between(col("k"), Literal(200.0), Literal(300.0))
        assert selectivity(expr, lookup) == 0.0

    def test_like_without_wildcards_is_equality(self):
        lookup = make_lookup(s=ColumnStats(100, 0, "a", "z", distinct=50.0))
        assert selectivity(Like(col("s"), "abc"), lookup) == pytest.approx(
            1 / 50
        )
        assert selectivity(Like(col("s"), "ab%"), lookup) == pytest.approx(
            0.25
        )

    def test_join_selectivity_uses_larger_distinct(self):
        a = ColumnStats(1000, 0, distinct=100.0)
        b = ColumnStats(50, 0, distinct=50.0)
        assert join_selectivity(a, b, 1000.0) == pytest.approx(1 / 100)
        assert join_selectivity(None, None, 500.0) == pytest.approx(1 / 500)


# Expression strategy for property tests: conjunctions of simple
# comparisons over one column with known stats.
_comparisons = st.builds(
    lambda op, v: BinaryOp(op, col("k"), Literal(v)),
    st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
    st.floats(-50, 150, allow_nan=False),
)
_terms = st.one_of(
    _comparisons,
    st.builds(lambda neg: IsNull(col("k"), negated=neg), st.booleans()),
    st.builds(
        lambda lo, hi: Between(col("k"), Literal(lo), Literal(hi)),
        st.floats(-50, 150, allow_nan=False),
        st.floats(-50, 150, allow_nan=False),
    ),
)
_stats_options = st.one_of(
    st.none(),
    st.builds(
        lambda n, nulls, d: ColumnStats(
            n, min(nulls, n), 0.0, 100.0, distinct=d
        ),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.one_of(st.none(), st.floats(1, 1000)),
    ),
)


class TestEstimateProperties:
    @given(_terms, _stats_options)
    @settings(max_examples=200, deadline=None)
    def test_selectivity_in_unit_interval(self, expr, stats):
        sel = selectivity(expr, lambda name: stats)
        assert 0.0 <= sel <= 1.0

    @given(_terms, _terms, _stats_options)
    @settings(max_examples=200, deadline=None)
    def test_conjunction_is_monotone(self, a, b, stats):
        # est(A AND B) <= min(est(A), est(B)): adding a conjunct can only
        # shrink the estimate (independence assumption, clamped).
        lookup = lambda name: stats
        both = selectivity(BinaryOp("AND", a, b), lookup)
        assert both <= selectivity(a, lookup) + 1e-12
        assert both <= selectivity(b, lookup) + 1e-12

    @given(st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_est_rows_never_negative(self, n_t, n_u):
        catalog = Catalog()
        engine = SQLEngine(catalog)
        engine.register(
            Table.from_arrays(k=np.arange(n_t), v=np.ones(n_t)), "t"
        )
        engine.register(
            Table.from_arrays(k=np.arange(n_u), w=np.ones(n_u)), "u"
        )
        plan = engine.plan(
            "SELECT t.k, SUM(t.v) AS s FROM t JOIN u ON t.k = u.k "
            "WHERE t.v > 0 GROUP BY t.k"
        )
        stack = [plan]
        while stack:
            node = stack.pop()
            assert node.est_rows is not None and node.est_rows >= 0.0
            stack.extend(node.children())


class TestBinder:
    def _bound_plan(self, engine, sql):
        plan = optimize(build_plan(parse(sql)))
        Binder(engine.catalog).bind(plan)
        return plan

    def test_temp_view_scan_gets_exact_rows(self):
        engine = SQLEngine()
        engine.register(Table.from_arrays(k=np.arange(123)), "t")
        plan = self._bound_plan(engine, "SELECT k FROM t")
        scan = [n for n in _walk(plan) if isinstance(n, Scan)][0]
        assert scan.est_rows == 123.0

    def test_missing_table_falls_back_to_default(self):
        plan = optimize(build_plan(parse("SELECT k FROM nope")))
        Binder(Catalog()).bind(plan)
        scan = [n for n in _walk(plan) if isinstance(n, Scan)][0]
        assert scan.est_rows == DEFAULT_ROWS

    def test_v2_table_stats_rolled_up_from_zone_maps(self):
        catalog = Catalog()
        rng = np.random.default_rng(3)
        for month in (1, 2):
            catalog.save(
                Table.from_arrays(
                    month=np.full(500, month), v=rng.normal(size=500)
                ),
                "cdr",
                partition=f"month={month}",
            )
        stats = catalog.table_stats("cdr")
        assert stats is not None and stats.rows == 1000
        assert stats.columns["month"].min == 1
        assert stats.columns["month"].max == 2
        binder = Binder(catalog)
        plan = optimize(build_plan(parse("SELECT v FROM cdr WHERE month = 1")))
        binder.bind(plan)
        filt = [n for n in _walk(plan) if isinstance(n, Filter)][0]
        # month has 2 distinct values -> the filter keeps about half.
        assert filt.est_rows == pytest.approx(500.0, rel=0.05)

    def test_filter_estimate_below_scan_estimate(self):
        engine = SQLEngine()
        rng = np.random.default_rng(0)
        engine.register(
            Table.from_arrays(k=rng.integers(0, 10, size=1000)), "t"
        )
        plan = self._bound_plan(engine, "SELECT k FROM t WHERE k = 3")
        scan = [n for n in _walk(plan) if isinstance(n, Scan)][0]
        filt = [n for n in _walk(plan) if isinstance(n, Filter)][0]
        assert filt.est_rows <= scan.est_rows
        assert filt.est_rows == pytest.approx(100.0)

    def test_join_estimate_divides_by_key_distinct(self):
        engine = SQLEngine()
        engine.register(
            Table.from_arrays(
                k=np.arange(100, dtype=np.int64), v=np.ones(100)
            ),
            "t",
        )
        engine.register(
            Table.from_arrays(
                k=np.repeat(np.arange(100, dtype=np.int64), 5),
                w=np.ones(500),
            ),
            "u",
        )
        plan = self._bound_plan(
            engine, "SELECT t.v, u.w FROM t JOIN u ON t.k = u.k"
        )
        join = [n for n in _walk(plan) if isinstance(n, Join)][0]
        # 100 * 500 / max(distinct)=100 -> 500.
        assert join.est_rows == pytest.approx(500.0)

    def test_describe_shows_est_rows_on_every_scan_and_join(self):
        engine = SQLEngine()
        engine.register(Table.from_arrays(k=np.arange(10)), "t")
        engine.register(Table.from_arrays(k=np.arange(10)), "u")
        text = engine.explain("SELECT t.k FROM t JOIN u ON t.k = u.k")
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith(("Scan(", "Join(")):
                assert "[est_rows=" in stripped, text

    def test_explain_statement_returns_plan_table(self):
        engine = SQLEngine()
        engine.register(Table.from_arrays(k=np.arange(10)), "t")
        out = engine.query("EXPLAIN SELECT k FROM t WHERE k = 1")
        assert out.schema.names == ("plan",)
        lines = list(out["plan"])
        assert any("Scan(" in line for line in lines)
        assert any("[est_rows=" in line for line in lines)

    def test_missing_stats_never_prune_pushdown(self, monkeypatch):
        # A table the catalog cannot provide stats for still answers
        # correctly — fallbacks only shape estimates, never results.
        catalog = Catalog()
        catalog.save(
            Table.from_arrays(k=np.arange(50, dtype=np.int64)), "t"
        )
        monkeypatch.setattr(catalog, "table_stats", lambda *a, **k: None)
        engine = SQLEngine(catalog)
        out = engine.query("SELECT k FROM t WHERE k >= 48")
        assert sorted(int(v) for v in out["k"]) == [48, 49]


def _walk(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())
