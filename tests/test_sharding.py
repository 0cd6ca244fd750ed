"""Shared-nothing sharding: partitioner, catalog, shuffle, scatter-gather.

The partitioner tests are property-based (hypothesis): the whole sharding
design rests on ``shard_of`` being a pure, platform-independent function
of the key value — same id, same shard, forever — and on CRC32
avalanching skewed real-world id distributions into balanced shards.
The rest covers the :class:`ShardedCatalog` placement/round-trip
contract, the :class:`ShuffleExchange` (its landing through the sharded
catalog's ``register_temp`` and its per-table memo, torn and shrinking
sources included), scatter-gather SQL parity against the single-shard
engine, and the shard-parallel wide-table builder's bit-identity guarantee.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplat.executor import ProcessPoolBackend, SerialBackend
from repro.dataplat.sharding import (
    SHUFFLE_DATABASE,
    Placement,
    ShardedCatalog,
    ShuffleExchange,
    shard_of,
)
from repro.dataplat.sql import ShardedSQLEngine, SQLEngine
from repro.dataplat.sql.plan import Aggregate, Filter, Join
from repro.dataplat.sql.scatter import Gather, Shuffle
from repro.dataplat.table import Table
from repro.errors import SQLAnalysisError

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
shard_counts = st.sampled_from([1, 2, 3, 4, 8, 16])


def _reference_shard(value: int, num_shards: int) -> int:
    """The stability contract, spelled out byte by byte."""
    crc = zlib.crc32(int(value).to_bytes(8, "little", signed=True))
    return crc % num_shards


class TestPartitionerStability:
    @given(value=int64s, num_shards=shard_counts)
    def test_scalar_matches_zlib_reference(self, value, num_shards):
        assert shard_of(value, num_shards) == _reference_shard(
            value, num_shards
        )

    @given(values=st.lists(int64s, min_size=1, max_size=50), num_shards=shard_counts)
    def test_vectorized_matches_scalar(self, values, num_shards):
        arr = np.array(values, dtype=np.int64)
        vec = shard_of(arr, num_shards)
        assert list(vec) == [shard_of(int(v), num_shards) for v in values]

    @given(values=st.lists(int64s, min_size=2, max_size=50), num_shards=shard_counts)
    def test_insertion_order_independent(self, values, num_shards):
        """Shard assignment is per-value: any permutation maps identically."""
        arr = np.array(values, dtype=np.int64)
        perm = np.random.default_rng(0).permutation(len(arr))
        direct = shard_of(arr, num_shards)
        permuted = shard_of(arr[perm], num_shards)
        assert list(direct[perm]) == list(permuted)

    @given(value=st.text(max_size=30), num_shards=shard_counts)
    def test_string_keys_match_utf8_reference(self, value, num_shards):
        expected = zlib.crc32(value.encode()) % num_shards
        assert shard_of(value, num_shards) == expected

    def test_pinned_values(self):
        """Anchors against silent algorithm drift between versions.

        These literals were computed from the zlib reference; a failure
        here means previously-written shards can no longer be found.
        """
        assert shard_of(0, 4) == 1
        assert shard_of(1, 4) == 3
        assert shard_of(123456789, 4) == 1
        assert shard_of(-1, 4) == 0
        assert shard_of("imsi-0001", 4) == 2

    def test_single_shard_maps_everything_to_zero(self):
        arr = np.arange(-500, 500, dtype=np.int64)
        assert set(shard_of(arr, 1)) == {0}

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_of(7, 0)

    def test_non_key_dtype_rejected(self):
        with pytest.raises(TypeError):
            shard_of(np.array([1.5, 2.5]), 4)

    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    @pytest.mark.parametrize(
        "name, ids",
        [
            (
                "power_law",
                lambda: (
                    40_000 * np.random.default_rng(3).random(25_000) ** 2
                ).astype(np.int64),
            ),
            ("contiguous", lambda: np.arange(24_000, dtype=np.int64)),
            (
                "strided",
                lambda: np.arange(0, 20_000 * 64, 64, dtype=np.int64),
            ),
        ],
    )
    def test_skewed_distributions_balance(self, num_shards, name, ids):
        """CRC32 avalanches low-entropy ids: max/min shard load <= 1.3."""
        codes = shard_of(ids(), num_shards)
        histogram = np.bincount(codes, minlength=num_shards)
        assert histogram.min() > 0, (name, histogram)
        ratio = histogram.max() / histogram.min()
        assert ratio <= 1.3, (name, num_shards, histogram.tolist())


def _make_facts(n_rows: int = 400, n_keys: int = 37, seed: int = 11):
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        imsi=rng.integers(0, n_keys, size=n_rows).astype(np.int64),
        dur=rng.integers(0, 3600, size=n_rows),
        grp=rng.integers(0, 5, size=n_rows).astype(np.int64),
    )


def _gather(catalog: ShardedCatalog, name: str) -> Table:
    """Every shard's piece of ``name``, concatenated in shard order."""
    return Table.concat([shard.scan(name) for shard in catalog.shards])


class TestShardedCatalog:
    def test_hash_save_round_trips_exactly(self):
        facts = _make_facts()
        catalog = ShardedCatalog(num_shards=4, shard_key="imsi")
        placement = catalog.save(facts, "facts")
        assert placement == Placement("hash", "imsi")
        assert sum(catalog.shard_rows("facts")) == facts.num_rows
        # Loading concatenates shard pieces in shard order, each piece
        # preserving input row order — reconstruct that exactly.
        codes = shard_of(facts.column("imsi"), 4)
        expected = facts.mask(codes == 0)
        for i in (1, 2, 3):
            expected = expected.concat_rows(facts.mask(codes == i))
        loaded = _gather(catalog, "facts")
        for col in facts.schema.names:
            assert np.array_equal(loaded[col], expected[col])

    def test_shards_own_disjoint_keys(self):
        facts = _make_facts()
        catalog = ShardedCatalog(num_shards=4, shard_key="imsi")
        catalog.save(facts, "facts")
        for i, shard in enumerate(catalog.shards):
            piece = shard.scan("facts")
            assert set(shard_of(piece.column("imsi"), 4)) <= {i}

    def test_table_without_shard_key_is_replicated(self):
        dims = Table.from_arrays(
            offer=np.arange(8, dtype=np.int64),
            kind=np.array(["a"] * 8, dtype=object),
        )
        catalog = ShardedCatalog(num_shards=3, shard_key="imsi")
        placement = catalog.save(dims, "offers")
        assert placement == Placement("replicated")
        assert catalog.shard_rows("offers") == [8, 8, 8]

    def test_explicit_key_overrides_default(self):
        facts = _make_facts()
        catalog = ShardedCatalog(num_shards=4, shard_key="imsi")
        catalog.save(facts, "facts", key="grp")
        assert catalog.placement("facts") == Placement("hash", "grp")
        for i, shard in enumerate(catalog.shards):
            piece = shard.scan("facts")
            assert set(shard_of(piece.column("grp"), 4)) <= {i}

    def test_empty_shard_pieces_keep_schema(self):
        """More shards than keys: empty pieces must still bind the schema."""
        tiny = Table.from_arrays(imsi=np.array([5], dtype=np.int64))
        catalog = ShardedCatalog(num_shards=4, shard_key="imsi")
        catalog.save(tiny, "tiny")
        assert sorted(catalog.shard_rows("tiny")) == [0, 0, 0, 1]
        loaded = _gather(catalog, "tiny")
        assert list(loaded["imsi"]) == [5]

    def test_drop_clears_placement_and_moves_version(self):
        facts = _make_facts()
        catalog = ShardedCatalog(num_shards=2, shard_key="imsi")
        catalog.save(facts, "facts")
        v0 = catalog.version("facts")
        catalog.drop("facts")
        assert catalog.placement("facts") is None
        # The counter moves on drop and never resets, so a memo stamped
        # before the drop cannot match a later save's version.
        assert catalog.version("facts") > v0

    def test_version_bumps_on_writes(self):
        catalog = ShardedCatalog(num_shards=2, shard_key="imsi")
        v0 = catalog.version("facts")
        catalog.register_temp(_make_facts(), "facts")
        assert catalog.version("facts") > v0
        v1 = catalog.version("facts")
        catalog.save(_make_facts(seed=12), "other")
        assert catalog.version("facts") == v1


class TestShuffleExchange:
    def _catalog(self):
        catalog = ShardedCatalog(num_shards=4, shard_key="imsi")
        catalog.save(_make_facts(), "facts")
        return catalog

    def test_repartition_lands_rows_on_owner_shards(self):
        catalog = self._catalog()
        exchange = ShuffleExchange(catalog)
        name = exchange.repartition("facts", "grp")
        total = 0
        for i, shard in enumerate(catalog.shards):
            piece = shard.scan(name, database=SHUFFLE_DATABASE)
            total += piece.num_rows
            assert set(shard_of(piece.column("grp"), 4)) <= {i}
        assert total == 400
        assert catalog.placement(name, SHUFFLE_DATABASE) == Placement(
            "hash", "grp"
        )

    def test_repartition_is_memoized_per_version(self):
        catalog = self._catalog()
        exchange = ShuffleExchange(catalog)
        first = exchange.repartition("facts", "grp")
        assert exchange.repartition("facts", "grp") == first
        assert exchange.shuffles == 1
        # A write to another table keeps the memo ...
        catalog.register_temp(_make_facts(seed=12), "other")
        assert exchange.repartition("facts", "grp") == first
        assert exchange.shuffles == 1
        # ... a write to the source clears it.
        catalog.save(_make_facts(seed=12), "facts")
        assert exchange.repartition("facts", "grp") == first
        assert exchange.shuffles == 2

    def test_destination_pieces_keep_source_shard_then_input_order(self):
        catalog = self._catalog()
        name = ShuffleExchange(catalog).repartition("facts", "grp")
        gathered = _gather(catalog, "facts")
        codes = shard_of(gathered.column("grp"), 4)
        for dest, shard in enumerate(catalog.shards):
            piece = shard.scan(name, database=SHUFFLE_DATABASE)
            want = gathered.mask(codes == dest)
            for col in gathered.schema.names:
                assert np.array_equal(piece[col], want[col])

    def test_distinct_column_subsets_get_distinct_names(self):
        catalog = self._catalog()
        exchange = ShuffleExchange(catalog)
        wide = exchange.repartition("facts", "grp", columns=["imsi", "dur"])
        narrow = exchange.repartition("facts", "grp", columns=["dur"])
        assert wide != narrow
        wide_piece = catalog.shards[0].scan(wide, database=SHUFFLE_DATABASE)
        narrow_piece = catalog.shards[0].scan(
            narrow, database=SHUFFLE_DATABASE
        )
        assert "imsi" in wide_piece.schema.names
        assert "imsi" not in narrow_piece.schema.names


def _scatter_world():
    """Facts sharded on imsi plus a replicated dimension."""
    rng = np.random.default_rng(7)
    n = 600
    facts = Table.from_arrays(
        imsi=rng.integers(0, 40, size=n).astype(np.int64),
        dur=rng.integers(0, 3600, size=n),
        cell=rng.integers(0, 6, size=n).astype(np.int64),
    )
    sessions = Table.from_arrays(
        imsi=rng.integers(0, 40, size=n).astype(np.int64),
        bytes_dl=rng.integers(0, 10_000, size=n),
    )
    # Cells 6 and 7 carry no facts: a LEFT join from cells keeps them
    # unmatched, once.
    cells = Table.from_arrays(
        id=np.arange(8, dtype=np.int64),
        region=np.array(list("abcdefgh"), dtype=object),
    )
    return {"facts": facts, "sessions": sessions, "cells": cells}


def _norm(table) -> list[tuple]:
    cols = [table[c] for c in table.schema.names]
    return sorted(
        tuple(round(v, 9) if isinstance(v, float) else v for v in row)
        for row in zip(*cols)
    )


#: Non-aligned join key: facts repartitions on ``cell`` to meet sessions.
SHUFFLE_JOIN_SQL = (
    "SELECT f.cell AS cell, SUM(s.bytes_dl) AS b FROM facts f "
    "JOIN sessions s ON f.cell = s.imsi GROUP BY f.cell ORDER BY cell"
)
UNARY_AVG_SQL = "SELECT cell, -SUM(dur), AVG(dur) FROM facts GROUP BY cell"
#: Misaligned and filtered: the CBO pre-aggregates the facts side by its
#: join key ``cell``, which then shuffles under that pre-aggregate.
PRE_AGG_SHUFFLE_SQL = (
    "SELECT s.imsi AS imsi, SUM(f.dur) AS d, COUNT(*) AS n FROM sessions s "
    "JOIN facts f ON s.imsi = f.cell WHERE f.dur > 100 GROUP BY s.imsi "
    "ORDER BY imsi"
)
#: A LEFT join from a replicated side onto the right's hash column: the
#: left side is realigned, not gathered.
LEFT_REALIGN_SQL = (
    "SELECT c.region AS region, COUNT(*) AS n FROM cells c "
    "LEFT JOIN facts f ON c.id = f.imsi GROUP BY c.region "
    "ORDER BY region"
)
#: A LEFT join from a replicated side on a column the right is not placed
#: by: no realignment is possible, so both sides gather.
LEFT_GATHER_SQL = (
    "SELECT c.region AS region, COUNT(*) AS n FROM cells c "
    "LEFT JOIN facts f ON c.id = f.cell GROUP BY c.region "
    "ORDER BY region"
)
SCATTER_CASES = [
    # Shard-local: filter + aggregate grouped on the shard key.
    "SELECT imsi, SUM(dur) AS total, COUNT(*) AS n FROM facts "
    "WHERE dur > 100 GROUP BY imsi ORDER BY imsi",
    # Co-partitioned join on the shard key.
    "SELECT f.imsi AS imsi, SUM(s.bytes_dl) AS b FROM facts f "
    "JOIN sessions s ON f.imsi = s.imsi GROUP BY f.imsi "
    "ORDER BY imsi",
    # Replicated dimension join + non-aligned group key: the
    # decomposable aggregate is pushed below the gather.
    "SELECT c.region AS region, COUNT(*) AS n, AVG(f.dur) AS mean_dur "
    "FROM facts f JOIN cells c ON f.cell = c.id GROUP BY c.region "
    "ORDER BY region",
    # Non-aligned self-join key: needs a shuffle exchange.
    SHUFFLE_JOIN_SQL,
    PRE_AGG_SHUFFLE_SQL,
    # Global aggregate without grouping.
    "SELECT COUNT(*) AS n, SUM(dur) AS total, MIN(dur) AS lo, "
    "MAX(dur) AS hi FROM facts",
    # DISTINCT aggregate: not decomposable, falls back to a full
    # gather — must still be correct.
    "SELECT COUNT(DISTINCT cell) AS n FROM facts",
    # Unary minus over an aggregate and AVG merge as partials.
    UNARY_AVG_SQL,
]


def _split_at_gathers(node, shard, central):
    """Sort a plan's nodes into those below a Gather and those above."""
    central.append(node)
    for child in node.children():
        if isinstance(node, Gather):
            shard.extend(_subtree(child))
        else:
            _split_at_gathers(child, shard, central)


def _subtree(node):
    yield node
    for child in node.children():
        yield from _subtree(child)


class TestScatterGatherSQL:
    def _engines(self, **kwargs):
        tables = _scatter_world()
        single = SQLEngine()
        sharded_catalog = ShardedCatalog(num_shards=4, shard_key="imsi")
        sharded = ShardedSQLEngine(sharded_catalog, **kwargs)
        for name, table in tables.items():
            single.register(table, name)
            sharded.register(table, name)
        return single, sharded

    @pytest.mark.parametrize("sql", SCATTER_CASES)
    def test_matches_single_shard(self, sql):
        single, sharded = self._engines()
        assert _norm(sharded.query(sql)) == _norm(single.query(sql)), sql

    @pytest.mark.parametrize(
        "sql", SCATTER_CASES + [LEFT_REALIGN_SQL, LEFT_GATHER_SQL]
    )
    def test_only_nodes_below_a_gather_are_estimated(self, sql):
        """Shard subplans keep the binder's per-shard ``est_rows``; the
        central nodes above a Gather, which see every shard's rows, carry
        none rather than one shard's count."""
        _, sharded = self._engines()
        shard, central = [], []
        _split_at_gathers(sharded.plan(sql), shard, central)
        assert any(isinstance(node, Gather) for node in central), sql
        bare = [type(n).__name__ for n in shard if n.est_rows is None]
        assert not bare, (sql, bare)
        estimated = [
            type(n).__name__ for n in central if n.est_rows is not None
        ]
        assert not estimated, (sql, estimated)

    def test_raw_row_fallback_is_counted(self, capture_spans):
        _, sharded = self._engines()
        sharded.query("SELECT SUM(dur) AS total FROM facts")
        assert capture_spans.counter("shard.partials_pushed") == 1
        assert capture_spans.counter("shard.partial_fallbacks") == 0
        sharded.query("SELECT COUNT(DISTINCT cell) AS n FROM facts")
        assert capture_spans.counter("shard.partials_pushed") == 1
        assert capture_spans.counter("shard.partial_fallbacks") == 1
        pushed, fell_back = capture_spans.find("shard.plan")
        assert "partial_fallbacks" not in pushed.counters
        assert fell_back.counters["partial_fallbacks"] == 1

    def test_unary_and_avg_aggregates_merge_as_partials(self, capture_spans):
        single, sharded = self._engines()
        got = sharded.query(UNARY_AVG_SQL)
        assert capture_spans.counter("shard.partials_pushed") == 1
        assert capture_spans.counter("shard.partial_fallbacks") == 0
        assert _norm(got) == _norm(single.query(UNARY_AVG_SQL))

    def test_planning_moves_no_data(self):
        pool = ProcessPoolBackend(max_workers=2)
        try:
            single, sharded = self._engines(backend=pool)
            shards = sharded.catalog.shards
            earlier = "SELECT imsi, SUM(dur) AS total FROM facts GROUP BY imsi"
            sharded.query(earlier)
            forks = pool.pool_forks
            generations = [shard.generation for shard in shards]
            stored = [shard.store.total_bytes for shard in shards]
            text = sharded.explain(SHUFFLE_JOIN_SQL)
            sharded.plan(SHUFFLE_JOIN_SQL)
            sharded.query(f"EXPLAIN {SHUFFLE_JOIN_SQL}")
            assert "Shuffle(by cell)" in text
            assert sharded.exchange.shuffles == 0
            assert all(not s.tables(SHUFFLE_DATABASE) for s in shards)
            assert [shard.generation for shard in shards] == generations
            assert [shard.store.total_bytes for shard in shards] == stored
            sharded.query(earlier)
            assert pool.pool_forks == forks
            got = sharded.query(SHUFFLE_JOIN_SQL)
            assert _norm(got) == _norm(single.query(SHUFFLE_JOIN_SQL))
            assert sharded.exchange.shuffles == 1
        finally:
            pool.close()

    def test_pre_aggregated_side_shuffles_under_its_aggregate(self):
        """A filtered join side the CBO pre-aggregates by the join key
        still shuffles: its groups land whole on one shard, so the
        pre-aggregate runs above the Shuffle and the join stays local."""
        _, sharded = self._engines()
        assert "Shuffle(by cell)" in sharded.explain(PRE_AGG_SHUFFLE_SQL)
        plan = sharded.plan(PRE_AGG_SHUFFLE_SQL)
        (gather,) = [n for n in _subtree(plan) if isinstance(n, Gather)]
        (join,) = [n for n in _subtree(gather) if isinstance(n, Join)]
        pre = join.right
        assert isinstance(pre, Aggregate) and isinstance(pre.child, Filter)
        assert isinstance(pre.child.child, Shuffle)

    def test_explain_analyze_is_rejected(self):
        _, sharded = self._engines()
        with pytest.raises(SQLAnalysisError, match="EXPLAIN ANALYZE"):
            sharded.query(f"EXPLAIN ANALYZE {SHUFFLE_JOIN_SQL}")

    def test_create_table_as_saves_every_shard(self):
        single, sharded = self._engines()
        sql = "SELECT imsi, SUM(dur) AS total FROM facts GROUP BY imsi"
        sharded.create_table_as("totals", sql)
        assert sharded.catalog.placement("totals") == Placement("hash", "imsi")
        assert sum(sharded.catalog.shard_rows("totals")) == 40
        assert all(sharded.catalog.shard_rows("totals"))
        back = "SELECT imsi, total FROM totals"
        assert _norm(sharded.query(back)) == _norm(single.query(sql))

    def test_explain_shows_gather(self):
        _, sharded = self._engines()
        plan = sharded.explain(
            "SELECT imsi, SUM(dur) AS total FROM facts GROUP BY imsi"
        )
        assert "Gather" in plan

    def test_process_backend_parity(self):
        pool = ProcessPoolBackend(max_workers=2)
        try:
            single, sharded = self._engines(backend=pool)
            sql = (
                "SELECT c.region AS region, SUM(f.dur) AS total FROM facts f "
                "JOIN cells c ON f.cell = c.id GROUP BY c.region "
                "ORDER BY region"
            )
            assert _norm(sharded.query(sql)) == _norm(single.query(sql))
        finally:
            pool.close()

    def test_left_join_replicated_left_gathers(self):
        single, sharded = self._engines()
        assert "Realign" not in sharded.explain(LEFT_GATHER_SQL)
        assert _norm(sharded.query(LEFT_GATHER_SQL)) == _norm(
            single.query(LEFT_GATHER_SQL)
        )

    def test_left_join_replicated_left_realigns(self):
        single, sharded = self._engines()
        sql = LEFT_REALIGN_SQL
        assert "Realign(by c.id)" in sharded.explain(sql)
        assert _norm(sharded.query(sql)) == _norm(single.query(sql))


class TestShuffleSourceWrites:
    """A shuffle join reads its source as the source stands after a write:
    a torn one, or one that shrinks it."""

    JOIN_SQL = (
        "SELECT t.v AS v, COUNT(*) AS n FROM t JOIN u ON t.imsi = u.imsi "
        "GROUP BY t.v ORDER BY v"
    )
    GROUP_SQL = "SELECT v, COUNT(*) AS n FROM t GROUP BY v ORDER BY v"

    @staticmethod
    def _t(v: int) -> Table:
        n = 1_000
        imsi = np.random.default_rng(5).integers(0, 50, size=n)
        return Table.from_arrays(
            k=np.arange(n, dtype=np.int64),
            imsi=imsi.astype(np.int64),
            v=np.full(n, v, dtype=np.int64),
        )

    def test_torn_save_is_not_served_from_a_stale_memo(self, monkeypatch):
        catalog = ShardedCatalog(num_shards=4, shard_key="imsi")
        catalog.save(self._t(1), "t", key="k")
        catalog.save(
            Table.from_arrays(imsi=np.arange(50, dtype=np.int64)), "u"
        )
        engine = ShardedSQLEngine(catalog)
        assert _norm(engine.query(self.JOIN_SQL)) == [(1, 1_000)]
        assert engine.exchange.shuffles == 1

        def boom(*args, **kwargs):
            raise OSError("shard 2 lost its disk")

        # Shards 0 and 1 take the overwrite, shards 2 and 3 keep v = 1.
        monkeypatch.setattr(catalog.shards[2], "save", boom)
        with pytest.raises(OSError):
            catalog.save(self._t(2), "t", key="k")
        grouped = _norm(engine.query(self.GROUP_SQL))
        assert [v for v, _ in grouped] == [1, 2]
        assert _norm(engine.query(self.JOIN_SQL)) == grouped
        assert engine.exchange.shuffles == 2

    def test_shrunk_source_reshuffles_into_its_own_entry(self):
        tables = _scatter_world()
        single = SQLEngine()
        catalog = ShardedCatalog(num_shards=4, shard_key="imsi")
        sharded = ShardedSQLEngine(catalog)
        for name, table in tables.items():
            single.register(table, name)
            catalog.save(table, name)
        sharded.query(SHUFFLE_JOIN_SQL)
        small = tables["facts"].head(40)
        single.register(small, "facts")
        catalog.save(small, "facts")
        got = sharded.query(SHUFFLE_JOIN_SQL)
        assert _norm(got) == _norm(single.query(SHUFFLE_JOIN_SQL))
        exchange = sharded.exchange
        assert exchange.shuffles == 2
        entries = [
            k for k in exchange._memo if k[:3] == ("default", "facts", "cell")
        ]
        assert len(entries) == 1


class TestShardedWideTable:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.config import ScaleConfig
        from repro.datagen import TelcoSimulator

        return TelcoSimulator(
            ScaleConfig(population=120, months=3, seed=9)
        ).run()

    def test_bit_identical_to_central_builder(self, world):
        from repro.features import (
            SHARDED_CATEGORIES,
            ShardedWideTableBuilder,
            WideTableBuilder,
        )

        central = WideTableBuilder(world, seed=0)
        sharded = ShardedWideTableBuilder(world, num_shards=4)
        for month in (1, 2):
            want = central.features(month, SHARDED_CATEGORIES)
            got = sharded.features(month, SHARDED_CATEGORIES)
            assert want.names == got.names
            assert np.array_equal(want.imsi, got.imsi)
            assert np.array_equal(
                want.values, got.values, equal_nan=True
            )

    def test_emits_per_shard_spans(self, world):
        from repro.dataplat import observability
        from repro.features import ShardedWideTableBuilder

        tracer = observability.Tracer()
        previous = observability.set_tracer(tracer)
        try:
            builder = ShardedWideTableBuilder(world, num_shards=3)
            builder.features(1, ("F1",))
        finally:
            observability.set_tracer(previous)
        shards = {
            span.tags.get("shard")
            for span in tracer.iter_spans()
            if span.name == "shard.widetable"
        }
        assert shards == {0, 1, 2}
