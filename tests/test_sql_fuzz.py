"""Differential SQL fuzz suite.

Seeded random queries run through the full production stack (parser →
planner → optimizer → vectorized executor) and through the naive
row-at-a-time reference in ``tests/sql_fuzz_reference.py``; results must
match row-for-row (sorted, float tolerance), and their column names and
types must match the statement's raw, unrewritten plan (the reference
yields bare rows, so it cannot hold the schema).  The suite runs under both
execution backends to pin down any backend-dependent state, and a failing
query is written to ``fuzz_failures/repro.json`` so CI can upload it as a
reproducer artifact.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.dataplat.catalog import Catalog
from repro.dataplat.executor import ProcessPoolBackend, SerialBackend
from repro.dataplat.sql import SQLEngine
from repro.dataplat.sql.executor import Executor
from sql_fuzz_reference import (
    generate_queries,
    make_fuzz_tables,
    normalize_rows,
    reference_query,
    rows_equal,
    table_rows,
)

SEED = 20260806
QUERY_COUNT = 220

ARTIFACT_DIR = Path(__file__).resolve().parents[1] / "fuzz_failures"


def _build_engine(tables) -> SQLEngine:
    engine = SQLEngine()
    for name, table in tables.items():
        engine.register(table, name)
    return engine


def _write_reproducer(failures: list[dict]) -> Path:
    ARTIFACT_DIR.mkdir(exist_ok=True)
    path = ARTIFACT_DIR / "repro.json"
    path.write_text(json.dumps({"seed": SEED, "failures": failures}, indent=2))
    return path


def _raw_schema(engine: SQLEngine, sql: str):
    """Column names and types of ``sql`` answered by its raw plan — no
    rule-based or cost-based rewrite, so no partial aggregate can have
    changed a column's type."""
    raw = engine.plan(sql, optimized=False)
    return Executor(engine.catalog).execute(raw).schema


def _run_suite(seed: int, count: int, build=_build_engine) -> None:
    tables = make_fuzz_tables(seed)
    engine = build(tables)
    failures = []
    for index, sql in enumerate(generate_queries(seed, count)):
        try:
            expected = reference_query(sql, tables)
            result = engine.query(sql)
            actual = table_rows(result)
            raw_schema = _raw_schema(engine, sql)
        except Exception as exc:  # record, keep fuzzing
            failures.append(
                {"index": index, "sql": sql, "error": f"{type(exc).__name__}: {exc}"}
            )
            continue
        if not rows_equal(actual, expected) or result.schema != raw_schema:
            failures.append(
                {
                    "index": index,
                    "sql": sql,
                    "engine_schema": repr(result.schema),
                    "raw_plan_schema": repr(raw_schema),
                    "engine_rows": len(actual),
                    "reference_rows": len(expected),
                    "engine_sample": [list(r) for r in sorted(map(tuple, actual))[:5]],
                    "reference_sample": [
                        list(r) for r in sorted(map(tuple, expected))[:5]
                    ],
                }
            )
    if failures:
        path = _write_reproducer(failures)
        pytest.fail(
            f"{len(failures)}/{count} fuzz queries diverged from the reference "
            f"(seed {seed}); reproducer written to {path}"
        )


class TestGenerator:
    def test_deterministic(self):
        assert generate_queries(SEED, 60) == generate_queries(SEED, 60)

    def test_different_seeds_differ(self):
        assert generate_queries(SEED, 60) != generate_queries(SEED + 1, 60)

    def test_covers_required_features(self):
        queries = generate_queries(SEED, QUERY_COUNT)
        assert sum("DISTINCT" in q for q in queries) >= 10
        assert sum("LIKE" in q for q in queries) >= 10
        assert sum("GROUP BY" in q for q in queries) >= 10
        assert sum("JOIN" in q for q in queries) >= 10
        assert sum("WHERE" in q for q in queries) >= 50
        # Multi-join chains: the cost-based optimizer's reordering only
        # engages on clusters of three or more tables.
        assert sum(q.count(" JOIN ") >= 2 for q in queries) >= 10

    def test_tables_deterministic(self):
        a = make_fuzz_tables(SEED)
        b = make_fuzz_tables(SEED)
        assert table_rows(a["t"]) == table_rows(b["t"])
        assert table_rows(a["u"]) == table_rows(b["u"])
        assert table_rows(a["v"]) == table_rows(b["v"])


class TestDifferential:
    def test_serial_backend(self, use_backend):
        use_backend(SerialBackend())
        _run_suite(SEED, QUERY_COUNT)

    def test_process_pool_backend(self, use_backend):
        use_backend(ProcessPoolBackend(max_workers=2))
        _run_suite(SEED, QUERY_COUNT)

    def test_secondary_seed(self):
        _run_suite(SEED + 1, 60)

    def test_tertiary_seed(self):
        _run_suite(SEED + 3, 60)

    def test_unoptimized_plan_matches_reference(self):
        """The optimizer must not change results: execute raw plans too."""
        tables = make_fuzz_tables(SEED)
        engine = _build_engine(tables)
        executor = Executor(engine.catalog)
        for sql in generate_queries(SEED, 40):
            expected = reference_query(sql, tables)
            raw = executor.execute(engine.plan(sql, optimized=False))
            assert rows_equal(table_rows(raw), expected), sql

    def test_results_identical_across_backends(self, use_backend):
        """Same normalized rows whichever backend is ambient."""
        tables = make_fuzz_tables(SEED)
        queries = generate_queries(SEED, 40)
        results = {}
        for label, backend in (
            ("serial", SerialBackend()),
            ("pool", ProcessPoolBackend(max_workers=2)),
        ):
            use_backend(backend)
            engine = _build_engine(tables)
            results[label] = [
                normalize_rows(table_rows(engine.query(sql))) for sql in queries
            ]
        assert results["serial"] == results["pool"]


def _build_partitioned_engine(tables) -> SQLEngine:
    """Persist the fuzz tables grp-sorted into 4 partitions each.

    Sorting by ``grp`` gives each partition a tight, distinct grp zone map,
    so WHERE conjuncts over grp genuinely prune; ids stay scattered, so id
    conjuncts exercise the keep-everything path.
    """
    catalog = Catalog()
    for name, table in tables.items():
        ordered = table.sort_by(["grp"])
        n = ordered.num_rows
        for i in range(4):
            part = ordered.take(np.arange(i * n // 4, (i + 1) * n // 4))
            catalog.save(part, name, partition=f"p{i}")
    return SQLEngine(catalog)


def _build_unpruned_engine(tables) -> SQLEngine:
    """The same grp-sorted tables as temp views.

    Temp views have no zone maps, so no scan over them ever prunes, and
    their row order is exactly the partitions' concatenation.
    """
    return _build_engine(
        {name: table.sort_by(["grp"]) for name, table in tables.items()}
    )


def _ordered_rows(table) -> list[tuple]:
    """Row tuples in output order, normalized cell-wise (NaN-safe)."""
    return [normalize_rows([row])[0] for row in table_rows(table)]


class TestPruningParity:
    """Zone-map pruning must be invisible: identical rows, pruned or not."""

    def _run(self, count: int) -> None:
        tables = make_fuzz_tables(SEED)
        pruned = _build_partitioned_engine(tables)
        plain = _build_unpruned_engine(tables)
        health = pruned.catalog.store.health
        pruned_query_count = 0
        for sql in generate_queries(SEED, count):
            before = health.chunks_skipped
            with_pruning = pruned.query(sql)
            without = plain.query(sql)
            assert _ordered_rows(with_pruning) == _ordered_rows(without), sql
            assert with_pruning.schema == _raw_schema(pruned, sql), sql
            if health.chunks_skipped > before:
                pruned_query_count += 1
        assert health.partitions_pruned > 0
        assert health.chunks_skipped > 0
        assert health.bytes_decoded_saved > 0
        assert pruned_query_count > 0, "no query ever skipped a chunk"
        # Temp views must never touch the pruning counters.
        assert plain.catalog.store.health.partitions_pruned == 0

    def test_serial_backend(self, use_backend):
        use_backend(SerialBackend())
        self._run(QUERY_COUNT)

    def test_process_pool_backend(self, use_backend):
        use_backend(ProcessPoolBackend(max_workers=2))
        self._run(QUERY_COUNT)

    def test_pruning_matches_reference(self):
        """Pruned engine vs the naive reference (transitively: vs unpruned)."""
        _run_suite(SEED + 2, 60, build=_build_partitioned_engine)


class TestShardedParity:
    """Shared-nothing sharding must be invisible to every query.

    The full corpus runs on a 4-shard :class:`ShardedSQLEngine` — tables
    hash-split on ``id``, non-aligned joins repartitioned through the
    shuffle exchange, decomposable aggregates merged at the gather — and
    the sorted rows must match both the single-shard engine and the naive
    row-at-a-time reference, and the column names and types the single
    engine's.  The exchange memo stays live across the corpus, so later
    queries also check that a reused repartition still reads right.
    """

    def _run(self, backend, seed: int, count: int) -> None:
        from repro.dataplat.sharding import ShardedCatalog
        from repro.dataplat.sql import ShardedSQLEngine

        tables = make_fuzz_tables(seed)
        single = _build_engine(tables)
        sharded = ShardedSQLEngine(
            ShardedCatalog(num_shards=4, shard_key="id"),
            backend=backend,
        )
        for name, table in tables.items():
            sharded.register(table, name)
        failures = []
        for index, sql in enumerate(generate_queries(seed, count)):
            try:
                expected = reference_query(sql, tables)
                single_out = single.query(sql)
                sharded_out = sharded.query(sql)
                single_rows = table_rows(single_out)
                sharded_rows = table_rows(sharded_out)
            except Exception as exc:  # record, keep fuzzing
                failures.append(
                    {
                        "index": index,
                        "sql": sql,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
                continue
            if (
                not rows_equal(sharded_rows, expected)
                or not rows_equal(sharded_rows, single_rows)
                or sharded_out.schema != single_out.schema
            ):
                failures.append(
                    {
                        "index": index,
                        "sql": sql,
                        "sharded_schema": repr(sharded_out.schema),
                        "single_schema": repr(single_out.schema),
                        "sharded_rows": len(sharded_rows),
                        "single_rows": len(single_rows),
                        "reference_rows": len(expected),
                    }
                )
        assert sharded.exchange.shuffles > 0, (
            "corpus never exercised the shuffle exchange"
        )
        if failures:
            path = _write_reproducer(failures)
            pytest.fail(
                f"{len(failures)}/{count} queries diverged on the 4-shard "
                f"engine (seed {seed}); reproducer written to {path}"
            )

    def test_serial_backend(self):
        self._run(SerialBackend(), SEED, QUERY_COUNT)

    def test_process_backend(self):
        pool = ProcessPoolBackend(max_workers=2)
        try:
            self._run(pool, SEED, QUERY_COUNT)
        finally:
            pool.close()

    def test_secondary_seed(self):
        self._run(SerialBackend(), SEED + 5, 60)


class TestProfilingParity:
    """``EXPLAIN ANALYZE`` annotates every plan line and is invisible.

    Every corpus query's annotated plan carries actual rows on each line,
    the root's equal to the reference row count, and annotating a query
    never perturbs a later plain run of it.
    """

    def _engines(self, seed: int):
        tables = make_fuzz_tables(seed)
        engine = SQLEngine(Catalog())
        for name, table in tables.items():
            engine.register(table, name)
        return tables, engine

    def test_every_corpus_plan_line_is_annotated(self):
        tables, engine = self._engines(SEED)
        failures = []
        for index, sql in enumerate(generate_queries(SEED, QUERY_COUNT)):
            try:
                expected = reference_query(sql, tables)
                lines = [
                    str(v)
                    for v in engine.query(f"EXPLAIN ANALYZE {sql}")["plan"]
                ]
                plain = engine.query(f"EXPLAIN {sql}").num_rows
            except Exception as exc:  # record, keep fuzzing
                failures.append(
                    {
                        "index": index,
                        "sql": sql,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
                continue
            if (
                len(lines) != plain
                or not all("actual_rows=" in line for line in lines)
                or f"actual_rows={len(expected)} " not in lines[0]
            ):
                failures.append(
                    {
                        "index": index,
                        "sql": sql,
                        "reference_rows": len(expected),
                        "annotated_root": lines[0],
                    }
                )
        if failures:
            path = _write_reproducer(failures)
            pytest.fail(
                f"{len(failures)}/{QUERY_COUNT} queries misannotated by "
                f"EXPLAIN ANALYZE (seed {SEED}); reproducer at {path}"
            )

    def test_explain_analyze_is_invisible(self):
        """EXPLAIN ANALYZE never perturbs a later plain run of the query."""
        tables, engine = self._engines(SEED + 4)
        for sql in generate_queries(SEED + 4, 40):
            expected = reference_query(sql, tables)
            annotated = engine.query(f"EXPLAIN ANALYZE {sql}")
            assert annotated.num_rows > 0
            assert all(
                "actual_rows=" in str(line) for line in annotated["plan"]
            ), sql
            again = table_rows(engine.query(sql))
            assert rows_equal(again, expected), sql
