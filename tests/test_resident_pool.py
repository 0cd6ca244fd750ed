"""Shard-resident process workers: fork-inherited residents, never stale.

:meth:`ProcessPoolBackend.map_resident` hands workers a large object (the
sharded catalog, the simulated world) by fork instead of pickling it into
every task, and forks again only when the object's stamp — for the sharded
engine, every shard's ``Catalog.generation`` — moves.  These tests pin the
two halves of that contract: after every kind of mutation the process
engine answers exactly like the serial one (a stale worker would not), and
over unchanged data the pool forks once, not per statement.
"""

import gc
import os

import numpy as np
import pytest

from repro.dataplat import executor
from repro.dataplat.executor import (
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro.dataplat.sharding import ShardedCatalog
from repro.dataplat.sql import ShardedSQLEngine
from repro.dataplat.table import Table

FACTS_SQL = (
    "SELECT imsi, COUNT(*) AS n, SUM(dur) AS total FROM facts GROUP BY imsi"
)


def _facts(seed: int, n: int = 400) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        imsi=rng.integers(0, 40, size=n).astype(np.int64),
        dur=rng.integers(0, 3600, size=n),
        cell=rng.integers(0, 6, size=n).astype(np.int64),
    )


def _norm(table) -> list[tuple]:
    cols = [table[c] for c in table.schema.names]
    return sorted(
        tuple(round(v, 9) if isinstance(v, float) else v for v in row)
        for row in zip(*cols)
    )


def _square(x):
    return x * x


class _Box:
    def __init__(self, value):
        self.value = value


def _read_box(box, item):
    return box.value + item


def _worker_view(box, item):
    """What a task sees of the executor singletons in its process."""
    return (
        os.getpid(),
        executor.get_default_backend().name,
        resolve_backend(None).name,
        resolve_backend("process").name,
        executor._shared_pool is None,
    )


@pytest.fixture()
def pool():
    backend = ProcessPoolBackend(max_workers=2)
    yield backend
    backend.close()


@pytest.fixture()
def sharded():
    """Stored facts, a temp view, a two-partition table and a mixed one."""
    catalog = ShardedCatalog(num_shards=4, shard_key="imsi")
    catalog.save(_facts(1), "facts")
    catalog.register_temp(_facts(2), "tv")
    catalog.save(_facts(3, 100), "ev", partition="p0")
    catalog.save(_facts(4, 100), "ev", partition="p1")
    # A temp view with a persisted partition saved beside it.
    catalog.register_temp(_facts(5, 100), "mix")
    catalog.save(_facts(6, 100), "mix", partition="p1")
    return catalog


def _agree(process, serial, sql):
    """Process rows (computed first) equal serial rows; returns them."""
    got = _norm(process.query(sql))
    assert got == _norm(serial.query(sql)), sql
    return got


def _save_overwrite(catalog, engine):
    catalog.save(_facts(11), "facts")


def _engine_register(catalog, engine):
    engine.register(_facts(12), "tv")


def _drop_partition_stored(catalog, engine):
    for shard in catalog.shards:
        shard.drop_partition("ev", "p1")


def _drop_partition_temp_view(catalog, engine):
    for shard in catalog.shards:
        shard.drop_partition("mix", "__all__")


def _drop_stored(catalog, engine):
    catalog.drop("ev")
    catalog.register_temp(_facts(13, 50), "ev")


def _drop_temp_view(catalog, engine):
    catalog.drop("tv")
    catalog.save(_facts(14, 50), "tv")


def _direct_shard_save(catalog, engine):
    piece = catalog.shards[0].scan("facts")
    catalog.shards[0].save(piece.mask(piece["dur"] < 1800), "facts")


class TestStaleness:
    @pytest.mark.parametrize(
        "mutate, table",
        [
            (_save_overwrite, "facts"),
            (_engine_register, "tv"),
            (_drop_partition_stored, "ev"),
            (_drop_partition_temp_view, "mix"),
            (_drop_stored, "ev"),
            (_drop_temp_view, "tv"),
            (_direct_shard_save, "facts"),
        ],
        ids=lambda p: p.__name__.lstrip("_") if callable(p) else p,
    )
    def test_process_matches_serial_after_mutation(
        self, pool, sharded, mutate, table
    ):
        process = ShardedSQLEngine(sharded, backend=pool)
        serial = ShardedSQLEngine(sharded, backend=SerialBackend())
        sql = FACTS_SQL.replace("facts", table)
        before = _agree(process, serial, sql)
        forks = pool.pool_forks
        mutate(sharded, process)
        after = _agree(process, serial, sql)
        # The rows moved, so a worker still holding the old data would
        # have answered ``before``.
        assert after != before
        assert pool.pool_forks == forks + 1

    def test_first_shuffle_reaches_forked_workers(self, pool, sharded):
        process = ShardedSQLEngine(sharded, backend=pool)
        serial = ShardedSQLEngine(sharded, backend=SerialBackend())
        _agree(process, serial, FACTS_SQL)
        forks = pool.pool_forks
        # Joining facts.cell to tv.imsi repartitions facts on cell: new
        # temp views land on every shard after the workers forked.
        rows = _agree(
            process,
            serial,
            "SELECT f.cell AS cell, SUM(t.dur) AS total FROM facts f "
            "JOIN tv t ON f.cell = t.imsi GROUP BY f.cell",
        )
        assert rows
        assert process.exchange.shuffles == 1
        assert pool.pool_forks == forks + 1

    def test_repaired_corrupt_replica(self, pool, sharded):
        process = ShardedSQLEngine(sharded, backend=pool)
        serial = ShardedSQLEngine(sharded, backend=SerialBackend())
        before = _agree(process, serial, FACTS_SQL)
        forks = pool.pool_forks
        for shard in sharded.shards:
            (path,) = [
                p for p in shard.partition_files("facts")
                if "/dur." in p
            ]
            block = shard.store.status(path).blocks[0]
            shard.store.corrupt_block(path, 0, block.replicas[0])
        assert _agree(process, serial, FACTS_SQL) == before
        assert pool.pool_forks == forks + 1
        health = sharded.shards[0].store.health
        assert health.corrupt_replicas_detected > 0
        assert health.replicas_repaired > 0


class TestForkOnce:
    def test_twenty_statements_fork_once(self, pool, sharded, capture_spans):
        gc.collect()  # no earlier test's resident dies mid-loop
        process = ShardedSQLEngine(sharded, backend=pool)
        statements = [
            FACTS_SQL,
            "SELECT COUNT(*) AS n, SUM(dur) AS s FROM facts",
            "SELECT imsi, SUM(dur) AS s FROM tv GROUP BY imsi",
            "SELECT COUNT(DISTINCT cell) AS n FROM ev",
        ]
        for i in range(20):
            process.query(statements[i % len(statements)])
        assert pool.pool_forks == 1
        assert capture_spans.counter("executor.pool_forks") == 1
        forked = [
            s for s in capture_spans.find("executor.map")
            if s.tags.get("forked")
        ]
        assert len(forked) == 1
        # Worker spans cross the process boundary with their shard tags.
        shards = {s.tags["shard"] for s in capture_spans.find("shard.execute")}
        assert shards == set(range(sharded.num_shards))

    def test_sharded_widetable_forks_once(self, pool):
        from repro.config import ScaleConfig
        from repro.datagen import TelcoSimulator
        from repro.features import (
            SHARDED_CATEGORIES,
            ShardedWideTableBuilder,
            WideTableBuilder,
        )

        world = TelcoSimulator(
            ScaleConfig(population=120, months=3, seed=9)
        ).run()
        gc.collect()
        central = WideTableBuilder(world, seed=0)
        for month in (1, 2):
            builder = ShardedWideTableBuilder(
                world, num_shards=4, seed=0, backend=pool
            )
            want = central.features(month, SHARDED_CATEGORIES)
            got = builder.features(month, SHARDED_CATEGORIES)
            assert np.array_equal(want.imsi, got.imsi)
            assert np.array_equal(want.values, got.values, equal_nan=True)
        assert pool.pool_forks == 1


class TestResidentRegistry:
    def test_reused_address_is_a_new_resident(self, pool):
        box = _Box(100)
        assert pool.map_resident(_read_box, box, 0, [1, 2]) == [101, 102]
        address = id(box)
        forks = pool.pool_forks
        del box
        spare = []
        for _ in range(10_000):
            new = _Box(200)
            if id(new) == address:
                break
            spare.append(new)
        assert id(new) == address, "precondition: the address was reused"
        # Same address, same stamp: only a token that is not the address
        # tells the workers' copy of the dead box from the new one.
        assert pool.map_resident(_read_box, new, 0, [1, 2]) == [201, 202]
        assert pool.pool_forks == forks + 1

    def test_changed_stamp_forks_again(self, pool):
        box = _Box(1)
        assert pool.map_resident(_read_box, box, 0, [1]) == [2]
        box.value = 5
        assert pool.map_resident(_read_box, box, 1, [1]) == [6]
        assert pool.map_resident(_read_box, box, 1, [2]) == [7]
        assert pool.pool_forks == 2

    def test_unpicklable_fn_falls_back_to_serial(self, pool, capture_spans):
        out = pool.map_resident(
            lambda box, x: box.value * x, _Box(3), 0, [1, 2]
        )
        assert out == [3, 6]
        assert pool.map(lambda x: 5 * x, [1, 2]) == [5, 10]
        assert pool.fallbacks == 2
        assert pool.pool_forks == 0
        assert capture_spans.counter("executor.fallbacks") == 2

    def test_serial_backend_runs_inline(self):
        assert SerialBackend().map_resident(
            _read_box, _Box(10), 0, [1, 2]
        ) == [11, 12]

    def test_fork_is_counted_and_tagged(self, pool, capture_spans):
        assert pool.map(_square, [1, 2]) == [1, 4]
        assert pool.map(_square, [3]) == [9]
        assert capture_spans.counter("executor.pool_forks") == 1
        first, second = capture_spans.find("executor.map")
        assert first.tags.get("forked") is True
        assert "forked" not in second.tags


class TestSharedPool:
    def test_one_pool_per_process(self):
        assert resolve_backend("process") is resolve_backend("process")

    def test_close_only_makes_the_next_map_fork(self):
        shared = resolve_backend("process")
        try:
            assert shared.map(_square, [1, 2, 3]) == [1, 4, 9]
            forks = shared.pool_forks
            shared.close()
            assert resolve_backend("process") is shared
            assert shared.map(_square, [4, 5]) == [16, 25]
            # A one-CPU host runs the shared pool inline: nothing forks.
            assert shared.pool_forks == forks + (shared.parallelism > 1)
        finally:
            shared.close()


class TestForkedWorker:
    def test_worker_never_fans_out(self, pool):
        # The parent's default and shared backends are process pools; a
        # worker inheriting them would fork pools of its own.
        previous = executor.get_default_backend()
        executor.set_default_backend(resolve_backend("process"))
        try:
            assert executor.get_default_backend().name == "process"
            assert resolve_backend("process").name == "process"
            views = pool.map_resident(_worker_view, _Box(0), 0, [1, 2, 3, 4])
        finally:
            executor.set_default_backend(previous)
        assert pool.pool_forks == 1
        for pid, default, none, process, no_pool in views:
            assert pid != os.getpid()  # ran in a worker, not inline
            assert (default, none, process) == ("serial",) * 3
            assert no_pool
