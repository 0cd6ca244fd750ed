"""Tests for the SQL LIKE operator and UNION ALL."""

import numpy as np
import pytest

from repro.dataplat import SQLEngine, Table
from repro.errors import SQLSyntaxError


@pytest.fixture()
def engine() -> SQLEngine:
    eng = SQLEngine()
    eng.register(
        Table.from_arrays(
            name=np.array(
                ["alice", "bob", "carol", "alan", "bo"], dtype=object
            ),
            v=np.arange(5),
        ),
        "t",
    )
    return eng


class TestLike:
    def test_percent_wildcard(self, engine):
        out = engine.query("SELECT name FROM t WHERE name LIKE 'a%'")
        assert sorted(out["name"].tolist()) == ["alan", "alice"]

    def test_underscore_wildcard(self, engine):
        out = engine.query("SELECT name FROM t WHERE name LIKE 'b_b'")
        assert out["name"].tolist() == ["bob"]

    def test_contains(self, engine):
        out = engine.query("SELECT name FROM t WHERE name LIKE '%o%'")
        assert sorted(out["name"].tolist()) == ["bo", "bob", "carol"]

    def test_not_like(self, engine):
        out = engine.query("SELECT name FROM t WHERE name NOT LIKE '%o%'")
        assert sorted(out["name"].tolist()) == ["alan", "alice"]

    def test_exact_match_without_wildcards(self, engine):
        out = engine.query("SELECT name FROM t WHERE name LIKE 'bo'")
        assert out["name"].tolist() == ["bo"]

    def test_regex_metacharacters_escaped(self):
        eng = SQLEngine()
        eng.register(
            Table.from_arrays(s=np.array(["a.b", "axb"], dtype=object)), "t"
        )
        out = eng.query("SELECT s FROM t WHERE s LIKE 'a.b'")
        assert out["s"].tolist() == ["a.b"]

    def test_like_in_compound_predicate(self, engine):
        out = engine.query(
            "SELECT name FROM t WHERE name LIKE '%a%' AND v > 0"
        )
        assert sorted(out["name"].tolist()) == ["alan", "carol"]

    def test_like_requires_string_pattern(self, engine):
        with pytest.raises(SQLSyntaxError):
            engine.query("SELECT name FROM t WHERE name LIKE 5")

    def test_like_usable_on_search_logs(self, tiny_world):
        """The realistic use: grep porting-intent queries from search logs."""
        eng = SQLEngine()
        eng.register(tiny_world.month(5).tables["search_logs"], "logs")
        out = eng.query(
            "SELECT imsi FROM logs WHERE doc LIKE '%srch_t0_%'"
        )
        assert out.num_rows > 0


class TestUnionAll:
    @pytest.fixture()
    def engine2(self) -> SQLEngine:
        eng = SQLEngine()
        eng.register(
            Table.from_arrays(k=np.array([1, 2]), v=np.array([1.0, 2.0])), "a"
        )
        eng.register(
            Table.from_arrays(k=np.array([3]), v=np.array([3.0])), "b"
        )
        return eng

    def test_concatenates_rows(self, engine2):
        out = engine2.query("SELECT k, v FROM a UNION ALL SELECT k, v FROM b")
        assert out["k"].tolist() == [1, 2, 3]

    def test_three_way_union(self, engine2):
        out = engine2.query(
            "SELECT k FROM a UNION ALL SELECT k FROM b UNION ALL SELECT k FROM a"
        )
        assert sorted(out["k"].tolist()) == [1, 1, 2, 2, 3]

    def test_branches_keep_their_filters(self, engine2):
        out = engine2.query(
            "SELECT k FROM a WHERE v > 1 UNION ALL SELECT k FROM b"
        )
        assert sorted(out["k"].tolist()) == [2, 3]

    def test_aggregate_over_union_via_view(self, engine2):
        engine2.register(
            engine2.query("SELECT k, v FROM a UNION ALL SELECT k, v FROM b"),
            "all_rows",
        )
        out = engine2.query("SELECT SUM(v) AS s FROM all_rows")
        assert out["s"].tolist() == [6.0]

    def test_column_mismatch_rejected(self, engine2):
        from repro.errors import SQLAnalysisError

        with pytest.raises(SQLAnalysisError):
            engine2.query("SELECT k, v FROM a UNION ALL SELECT k FROM b")

    def test_union_requires_all_keyword(self, engine2):
        from repro.errors import SQLSyntaxError

        with pytest.raises(SQLSyntaxError):
            engine2.query("SELECT k FROM a UNION SELECT k FROM b")

    def test_monthly_partition_stitching(self, tiny_world):
        """The realistic use: one view over two monthly tables."""
        eng = SQLEngine()
        eng.register(tiny_world.month(1).tables["billing"], "billing_m1")
        eng.register(tiny_world.month(2).tables["billing"], "billing_m2")
        out = eng.query(
            "SELECT imsi, balance FROM billing_m1 "
            "UNION ALL SELECT imsi, balance FROM billing_m2"
        )
        assert out.num_rows == 2 * tiny_world.population.size


class TestMedian:
    def test_median_per_group(self):
        eng = SQLEngine()
        eng.register(
            Table.from_arrays(
                k=np.array([1, 1, 1, 2, 2]),
                v=np.array([1.0, 9.0, 5.0, 2.0, 4.0]),
            ),
            "t",
        )
        out = eng.query("SELECT k, MEDIAN(v) AS m FROM t GROUP BY k ORDER BY k")
        assert out["m"].tolist() == [5.0, 3.0]

    def test_global_median(self):
        eng = SQLEngine()
        eng.register(Table.from_arrays(v=np.array([3.0, 1.0, 2.0])), "t")
        out = eng.query("SELECT MEDIAN(v) AS m FROM t")
        assert out["m"].tolist() == [2.0]
