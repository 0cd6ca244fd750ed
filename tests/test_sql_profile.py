"""EXPLAIN ANALYZE: the parser flag and the plan annotated from the
``sql.*`` spans its own execution records."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.dataplat.catalog import Catalog
from repro.dataplat.observability import trace
from repro.dataplat.sql import SQLEngine
from repro.dataplat.sql.ast_nodes import ExplainStatement
from repro.dataplat.sql.parser import parse
from repro.dataplat.table import Table


def make_tables(n: int = 400) -> dict[str, Table]:
    rng = np.random.default_rng(17)
    # Power-law values: the uniform-selectivity estimate for ``v < 5`` is
    # badly wrong, so the annotated plan shows a q-error above 1.
    v = np.floor(100 * rng.random(n) ** 3).astype(np.int64)
    t = Table.from_arrays(
        id=np.arange(n, dtype=np.int64),
        v=v,
        grp=(np.arange(n) % 7).astype(np.int64),
    )
    u = Table.from_arrays(
        grp=np.arange(7, dtype=np.int64),
        name=np.array([f"g{i}" for i in range(7)], dtype=object),
    )
    return {"t": t, "u": u}


def make_engine() -> SQLEngine:
    engine = SQLEngine()
    for name, table in make_tables().items():
        engine.register(table, name)
    return engine


QUERY = (
    "SELECT u.name, COUNT(*) AS n FROM t JOIN u ON t.grp = u.grp "
    "WHERE t.v < 5 GROUP BY u.name"
)

#: The per-line fields of an annotated plan, minus wall/CPU time.
_COUNTS = re.compile(
    r"\[est_rows=\S+ actual_rows=\d+(?: q=\S+)? wall_ms=\S+ cpu_ms=\S+ "
    r"(bytes_decoded=\d+ cache_hits=\d+ cache_misses=\d+ "
    r"chunks_skipped=\d+ partitions_pruned=\d+)\]$"
)


def _fields(line: str) -> dict[str, str]:
    body = line[line.rindex("[") + 1 : -1]
    return dict(part.split("=", 1) for part in body.split())


def _untimed(lines) -> list[str]:
    """Annotated plan lines with the wall/CPU readings blanked out."""
    return [
        re.sub(r"(wall_ms|cpu_ms)=\S+", r"\1=*", str(line)) for line in lines
    ]


class TestParser:
    def test_explain_analyze_flag(self):
        stmt = parse("EXPLAIN ANALYZE SELECT * FROM t")
        assert isinstance(stmt, ExplainStatement)
        assert stmt.analyze is True

    def test_plain_explain_has_no_analyze(self):
        stmt = parse("EXPLAIN SELECT * FROM t")
        assert isinstance(stmt, ExplainStatement)
        assert stmt.analyze is False

    def test_analyze_requires_explain(self):
        from repro.errors import SQLError

        with pytest.raises(SQLError):
            parse("ANALYZE SELECT * FROM t")


class TestExplainAnalyze:
    def test_every_operator_line_is_annotated(self):
        engine = make_engine()
        out = engine.query(f"EXPLAIN ANALYZE {QUERY}")
        lines = [str(v) for v in out["plan"]]
        plain = [str(v) for v in engine.query(f"EXPLAIN {QUERY}")["plan"]]
        assert len(lines) == len(plain)
        for line in lines:
            assert "actual_rows=" in line and "est_rows=" in line
            assert "wall_ms=" in line and "bytes_decoded=" in line

    def test_actual_rows_match_execution(self):
        engine = make_engine()
        expected = engine.query(QUERY)
        out = engine.query(f"EXPLAIN ANALYZE {QUERY}")
        root_line = str(out["plan"][0])
        assert f"actual_rows={expected.num_rows}" in root_line

    def test_plain_explain_unchanged(self):
        engine = make_engine()
        out = engine.query(f"EXPLAIN {QUERY}")
        assert not any("actual_rows" in str(v) for v in out["plan"])

    def test_q_only_on_estimating_operators(self):
        lines = [
            str(v) for v in make_engine().query(f"EXPLAIN ANALYZE {QUERY}")["plan"]
        ]
        for line in lines:
            operator = line.split("(", 1)[0].strip()
            estimating = operator in ("Scan", "Filter", "Join", "Aggregate")
            assert ("q" in _fields(line)) == estimating, line
        # The skewed ``v < 5`` filter is misestimated.
        assert any(
            float(_fields(line).get("q", 1.0)) > 1.5 for line in lines
        )

    def test_storage_counters_attributed_to_scans(self):
        catalog = Catalog(cache_bytes=0)  # every read decodes
        for name, table in make_tables().items():
            catalog.save(table, name)
        engine = SQLEngine(catalog)
        out = engine.query(f"EXPLAIN ANALYZE {QUERY}")
        lines = [str(v) for v in out["plan"]]
        scans = [_fields(l) for l in lines if l.lstrip().startswith("Scan")]
        others = [
            _fields(l) for l in lines if not l.lstrip().startswith("Scan")
        ]
        assert len(scans) == 2 and others
        assert all(int(f["bytes_decoded"]) > 0 for f in scans)
        # Projection pushdown skips ``t.id``, which no operator reads.
        assert sum(int(f["chunks_skipped"]) for f in scans) > 0
        # Exclusive attribution: non-scan operators touch no storage.
        for f in others:
            assert f["bytes_decoded"] == "0" and f["chunks_skipped"] == "0"
            assert f["cache_misses"] == "0"

    def test_runs_inside_an_active_trace(self):
        engine = make_engine()
        bare = engine.query(f"EXPLAIN ANALYZE {QUERY}")["plan"]
        with trace() as tracer:
            traced = engine.query(f"EXPLAIN ANALYZE {QUERY}")["plan"]
        assert _untimed(traced) == _untimed(bare)
        for line in traced:
            assert _COUNTS.search(str(line)), line
        # The statement's operator spans land in the caller's trace.
        (execute,) = tracer.find("sql.execute")
        assert [s.name for s in execute.walk() if s.name.startswith("sql.")] == [
            "sql.execute", "sql.aggregate", "sql.join", "sql.filter",
            "sql.scan", "sql.scan",
        ]
        assert tracer.find("sql.query")[0].children[-1] is execute
