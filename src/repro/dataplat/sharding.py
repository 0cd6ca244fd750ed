"""Shared-nothing sharding: hash-partitioned catalogs and shuffle exchange.

The paper's platform reaches 2.1M customers by hash-partitioning every
per-customer table across independent workers, so joins and per-customer
aggregation run shard-local with zero data movement.  This module is that
layer for our catalog:

- :func:`shard_of` — the stable CRC32 partitioner.  A customer id maps to
  the same shard on every platform, every run, and in any insertion order,
  because the hash is the CRC32 of the id's fixed-width little-endian
  encoding (``zlib.crc32`` compatible), not Python's salted ``hash()``.
- :class:`ShardedCatalog` — N fully independent :class:`~.catalog.Catalog`
  instances, each with its own block store, write-ahead journal and
  telemetry run context.  Tables carrying the shard key are hash-placed
  (rows split by :func:`shard_of`); tables without it are replicated to
  every shard (broadcast dimensions).  Two hash-placed tables sharing the
  shard key are *co-partitioned*: equal keys live on the same shard, so an
  equi-join on the key needs no network step.
- :class:`ShuffleExchange` — repartitions a table on a different key for
  non-aligned joins: it gathers the source in shard order and lands it
  with the sharded catalog's own ``register_temp`` under the ``__shuffle``
  database, so a shuffle is placed by the same split as every other table.

The scatter-gather SQL path on top lives in
:mod:`repro.dataplat.sql.scatter`; the shard-parallel wide-table build in
:mod:`repro.features.sharded`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import CatalogError
from .blockstore import DEFAULT_TABLE_CACHE_BYTES, BlockStore
from .catalog import Catalog
from .observability import get_metrics, span
from .table import Table

__all__ = [
    "Placement",
    "ShardedCatalog",
    "ShuffleExchange",
    "shard_of",
]

#: Database (created on every shard) holding shuffled repartitions.
SHUFFLE_DATABASE = "__shuffle"

_AUTO = object()  # sentinel: derive the placement from the table's schema


def _make_crc_table() -> np.ndarray:
    table = np.empty(256, dtype=np.uint32)
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
        table[i] = crc
    return table


_CRC_TABLE = _make_crc_table()


def _crc32_int64(values: np.ndarray) -> np.ndarray:
    """Vectorized CRC32 of each int64's 8-byte little-endian encoding.

    Bit-identical to ``zlib.crc32(int(v).to_bytes(8, "little",
    signed=True))`` per element — the table-driven algorithm applied to all
    rows at once, eight gather ops instead of a Python loop.
    """
    u = np.ascontiguousarray(values, dtype=np.int64).view(np.uint64)
    crc = np.full(u.shape, 0xFFFFFFFF, dtype=np.uint32)
    for byte_index in range(8):
        b = ((u >> np.uint64(8 * byte_index)) & np.uint64(0xFF)).astype(
            np.uint32
        )
        crc = (crc >> np.uint32(8)) ^ _CRC_TABLE[(crc ^ b) & np.uint32(0xFF)]
    return crc ^ np.uint32(0xFFFFFFFF)


def shard_of(values, num_shards: int):
    """Map shard-key value(s) to owning shard indices in ``[0, num_shards)``.

    Integers hash as their fixed-width little-endian bytes, strings as
    their UTF-8 bytes, both through CRC32 — stable across platforms,
    processes and insertion orders, and uniform enough that even heavily
    skewed id distributions balance (CRC32 avalanches low-entropy inputs).

    Scalars return a plain ``int``; arrays return an int64 array.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if isinstance(values, (int, np.integer)):
        crc = zlib.crc32(int(values).to_bytes(8, "little", signed=True))
        return int(crc % num_shards)
    if isinstance(values, (str, bytes)):
        raw = values.encode() if isinstance(values, str) else values
        return int(zlib.crc32(raw) % num_shards)
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return (
            _crc32_int64(arr.astype(np.int64, copy=False))
            % np.uint32(num_shards)
        ).astype(np.int64)
    if arr.dtype.kind in "OU":
        out = np.empty(len(arr), dtype=np.int64)
        for i, v in enumerate(arr):
            out[i] = zlib.crc32(str(v).encode()) % num_shards
        return out
    raise TypeError(
        f"shard keys must be integers or strings, got dtype {arr.dtype}"
    )


@dataclass(frozen=True)
class Placement:
    """Where a table's rows live: hash-split on ``key`` or replicated."""

    kind: str  # "hash" | "replicated"
    key: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hash", "replicated"):
            raise CatalogError(f"unknown placement kind {self.kind!r}")
        if (self.kind == "hash") != (self.key is not None):
            raise CatalogError(
                "hash placement requires a key; replicated forbids one"
            )


class ShardedCatalog:
    """N independent catalogs plus the placement map tying them together.

    Each shard owns a private :class:`~.blockstore.BlockStore` (its own
    replication, health counters and journal) — shared-nothing, so a shard
    can be crashed, recovered or benchmarked in isolation.  ``save`` and
    ``register_temp`` split rows by :func:`shard_of` on the shard-key
    column when the table has one (``key=None`` forces replication,
    ``key="col"`` forces hashing on another column).

    The *co-partitioning contract*: any two tables hash-placed on columns
    holding the same id domain put equal keys on the same shard — that is
    what makes per-customer joins and F1..F9 aggregation shard-local.
    """

    def __init__(
        self,
        num_shards: int,
        shard_key: str = "imsi",
        cache_bytes: int = DEFAULT_TABLE_CACHE_BYTES,
        durability=None,
    ) -> None:
        if num_shards < 1:
            raise CatalogError(f"num_shards must be >= 1, got {num_shards}")
        self._shards = tuple(
            Catalog(BlockStore(), cache_bytes=cache_bytes, durability=durability)
            for _ in range(num_shards)
        )
        self._shard_key = shard_key
        self._placement: dict[tuple[str, str], Placement] = {}
        #: Writes seen per (database, name); see :meth:`version`.
        self._versions: dict[tuple[str, str], int] = {}
        for shard in self._shards:
            shard.create_database(SHUFFLE_DATABASE)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[Catalog, ...]:
        return self._shards

    @property
    def shard_key(self) -> str:
        return self._shard_key

    def version(self, name: str, database: str = "default") -> int:
        """How many writes ``database.name`` has seen.

        Every :meth:`save`, :meth:`register_temp` and :meth:`drop` of the
        table bumps it, even one that raises part-way through the shards,
        and it never resets (not on drop either), so a memo stamped with
        it misses after any write that may have touched a shard.
        """
        return self._versions.get((database, name), 0)

    def _bump(self, name: str, database: str) -> None:
        key = (database, name)
        self._versions[key] = self._versions.get(key, 0) + 1

    def placement(self, name: str, database: str = "default") -> Placement | None:
        return self._placement.get((database, name))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _resolve_placement(
        self, table: Table, name: str, database: str, key
    ) -> Placement:
        if key is _AUTO:
            key = self._shard_key if self._shard_key in table.schema else None
        if key is not None and key not in table.schema:
            raise CatalogError(
                f"shard key {key!r} not in columns of {database}.{name}: "
                f"{list(table.schema.names)}"
            )
        placement = (
            Placement("hash", key) if key is not None else Placement("replicated")
        )
        existing = self._placement.get((database, name))
        if existing is not None and existing != placement:
            raise CatalogError(
                f"{database}.{name} is already placed as {existing}; "
                f"cannot re-place as {placement}"
            )
        return placement

    def save(
        self,
        table: Table,
        name: str,
        database: str = "default",
        partition: str | None = None,
        key=_AUTO,
    ) -> Placement:
        """Hash-split (or replicate) ``table`` across the shards.

        Every shard receives a (possibly empty) piece, so schemas bind
        identically everywhere.  Row order within a shard preserves the
        input order — what makes shard-local aggregation bit-identical to
        the single-catalog path.
        """
        placement = self._resolve_placement(table, name, database, key)
        try:
            with span(
                "shard.save",
                table=f"{database}.{name}",
                placement=placement.kind,
            ) as sp:
                for i, piece in enumerate(self._split(table, placement)):
                    self._shards[i].save(
                        piece, name, database=database, partition=partition
                    )
                    sp.incr("rows", piece.num_rows)
            self._placement[(database, name)] = placement
        finally:
            self._bump(name, database)
        return placement

    def register_temp(
        self,
        table: Table,
        name: str,
        database: str = "default",
        key=_AUTO,
    ) -> Placement:
        """Register an in-memory table, split exactly like :meth:`save`."""
        placement = self._resolve_placement(table, name, database, key)
        try:
            for i, piece in enumerate(self._split(table, placement)):
                self._shards[i].register_temp(piece, name, database=database)
            self._placement[(database, name)] = placement
        finally:
            self._bump(name, database)
        return placement

    def _split(self, table: Table, placement: Placement):
        if placement.kind == "replicated":
            for _ in self._shards:
                yield table
            return
        codes = shard_of(table.column(placement.key), self.num_shards)
        for i in range(self.num_shards):
            yield table.mask(codes == i)

    def drop(self, name: str, database: str = "default") -> None:
        try:
            for shard in self._shards:
                shard.drop(name, database=database)
            self._placement.pop((database, name), None)
        finally:
            self._bump(name, database)

    def shard_rows(self, name: str, database: str = "default") -> list[int]:
        """Per-shard row counts — the balance picture for one table."""
        return [
            shard.scan(name, database=database).num_rows
            for shard in self._shards
        ]


class ShuffleExchange:
    """Repartition a table on a new key so a non-aligned join runs local.

    ``repartition`` gathers the source's pieces in shard order (every shard
    for a hash-placed table, shard 0 for a replicated one) and lands them
    with one :meth:`ShardedCatalog.register_temp` hashed on the new key,
    under the ``__shuffle`` database.  That split keeps input order, so
    each destination piece holds its rows in source shard order, then in
    input order within each shard, and results are deterministic.

    Repartitions are memoized per (table, key, columns) against the source
    table's :meth:`ShardedCatalog.version`: re-running the 220-query fuzz
    corpus shuffles each (table, key) pair once, not per query.  A write to
    another table keeps the entry; any write to the source, a failed one
    included, makes the next call re-shuffle and replace it.
    """

    def __init__(self, catalog: ShardedCatalog) -> None:
        self._catalog = catalog
        #: (database, name, key, columns) -> (source version, landed name)
        self._memo: dict[tuple, tuple[int, str]] = {}
        self.shuffles = 0

    def repartition(
        self,
        name: str,
        key: str,
        database: str = "default",
        columns=None,
    ) -> str:
        """Land ``database.name`` rehashed on ``key``; return the new name.

        The returned name is ``__shuffle.<db>__<table>__by__<key>`` (with
        a column-set digest suffix when ``columns`` narrows the table) —
        scannable on every shard, hash-placed on ``key``.
        """
        cols = None if columns is None else list(dict.fromkeys([*columns, key]))
        memo_key = (database, name, key, None if cols is None else tuple(cols))
        catalog = self._catalog
        version = catalog.version(name, database)
        cached = self._memo.get(memo_key)
        if cached is not None and cached[0] == version:
            return cached[1]
        placement = catalog.placement(name, database)
        with span(
            "shard.shuffle", table=f"{database}.{name}", key=key
        ) as sp:
            sources = (
                catalog.shards[:1]
                if placement is not None and placement.kind == "replicated"
                else catalog.shards
            )
            gathered = Table.concat(
                [
                    shard.scan(name, database=database, columns=cols)
                    for shard in sources
                ]
            )
            safe = name.replace(".", "_")
            shuffled = f"{database}__{safe}__by__{key}"
            if cols is not None:
                # Distinct column subsets must land under distinct names:
                # the memo keeps one entry per subset alive, so reusing one
                # name would let a later narrow shuffle clobber a wider one.
                digest = zlib.crc32(",".join(cols).encode("utf-8"))
                shuffled = f"{shuffled}__{digest:08x}"
            catalog.register_temp(gathered, shuffled, SHUFFLE_DATABASE, key=key)
            self.shuffles += 1
            metrics = get_metrics()
            metrics.counter("shard.shuffles").inc()
            metrics.counter("shard.shuffle_rows").inc(gathered.num_rows)
            sp.incr("rows", gathered.num_rows)
        self._memo[memo_key] = (version, shuffled)
        return shuffled
