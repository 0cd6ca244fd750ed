"""A Hive-like metastore over the block store.

The paper lands raw BSS/OSS tables in HDFS as Hive tables and re-reads the
intermediate feature tables "many times".  :class:`Catalog` reproduces that:
it maps ``database.table`` (optionally partitioned, e.g. by month) onto block
store paths, caches deserialized tables, and exposes the listing / drop /
describe surface a metastore has.

Partitions are stored in the **v2 columnar format** (one chunk per column,
zone maps in a JSON manifest — see :mod:`.columnar`).  The
:meth:`Catalog.scan` API reads only the column chunks a query references
and skips partitions whose zone maps cannot satisfy the pushed-down
conjuncts.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from ..errors import CatalogError
from .blockstore import DEFAULT_TABLE_CACHE_BYTES, BlockStore, TableCache
from .columnar import (
    CHUNK_SUFFIX,
    MANIFEST_SUFFIX,
    ChunkMeta,
    PartitionManifest,
    ScanPredicate,
    TableStats,
    array_nbytes,
    column_stats_from_array,
    decode_column,
    encode_column,
    manifest_allows,
    rollup_table_stats,
)
from .journal import (
    Durability,
    RecoveryReport,
    TableJournal,
    partition_residue,
    recover_store,
    schema_doc,
    staging_dir,
    txn_floor,
)
from .observability import current_span, get_metrics, span
from .schema import Schema
from .table import Table


@dataclass(frozen=True)
class TableInfo:
    """Metadata about one catalog table."""

    database: str
    name: str
    schema: Schema
    partitions: tuple[str, ...]

    @property
    def qualified_name(self) -> str:
        return f"{self.database}.{self.name}"


class Catalog:
    """Metastore mapping logical tables to block-store files.

    Parameters
    ----------
    store:
        Backing :class:`BlockStore`; a private one is created if omitted.
    cache_bytes:
        Decoded-bytes budget of the LRU table cache.  Partitions cache
        **per column chunk**, so a two-column query over a 140-column table
        does not evict the whole cache.  Hit/miss/eviction counters land on
        the store's :class:`StorageHealth`, and the cache is invalidated
        whenever the store reports a path's bytes may have changed (write,
        delete, repair, injected corruption).
    durability:
        Crash-safety configuration (see :class:`~.journal.Durability`):
        every save/drop runs as a journaled transaction, by default with
        fsync barriers at the commit point.
    """

    #: Partition value used for unpartitioned tables.
    DEFAULT_PARTITION = "__all__"

    def __init__(
        self,
        store: BlockStore | None = None,
        cache_bytes: int = DEFAULT_TABLE_CACHE_BYTES,
        durability: Durability | None = None,
    ) -> None:
        self._store = store if store is not None else BlockStore()
        self._durability = durability if durability is not None else Durability()
        self._tables: dict[tuple[str, str], dict[str, str]] = {}
        self._schemas: dict[tuple[str, str], Schema] = {}
        self._cache = TableCache(cache_bytes, health=self._store.health)
        #: Decoded manifests by path; tiny, so kept outside the LRU budget.
        self._manifests: dict[str, PartitionManifest] = {}
        #: Temp views live outside the LRU: they have no backing file, so
        #: eviction would lose them rather than cost a re-read.
        self._temp: dict[str, Table] = {}
        #: Table statistics memo for the binder, invalidated on any write.
        self._stats: dict[tuple[str, str], TableStats | None] = {}
        self._databases: set[str] = {"default"}
        #: Monotonic transaction id; lazily floored against whatever ids
        #: already exist on the store so versioned chunk names never reuse
        #: a live one.
        self._txn = 0
        self._txn_seeded = False
        #: What the last :meth:`open` recovery did (None for plain
        #: constructor use, where no recovery runs).
        self.last_recovery: RecoveryReport | None = None
        #: Bumped whenever what a read returns may change (any store byte
        #: change, temp-view register or drop); process workers holding a
        #: forked copy of this catalog are stale once it moves.
        self.generation = 0
        self._store.add_invalidation_listener(self._on_invalidated)

    @classmethod
    def open(
        cls,
        store: BlockStore,
        cache_bytes: int = DEFAULT_TABLE_CACHE_BYTES,
        durability: Durability | None = None,
    ) -> "Catalog":
        """Open a catalog over an existing store, running crash recovery.

        Journals are replayed (committed-but-unfinished transactions) or
        rolled back (uncommitted ones), staging/orphan files are swept,
        and registrations are rebuilt from journal checkpoints — falling
        back to the identity fields manifests embed when no journal
        survives.  The recovery outcome lands in :attr:`last_recovery`,
        on ``recovery.*`` metric counters, and under a ``catalog.recover``
        span.
        """
        catalog = cls(store, cache_bytes, durability)
        catalog._recover()
        return catalog

    def _recover(self) -> None:
        with span("catalog.recover") as sp:
            recovered = recover_store(self._store, self._durability)
            self._tables = {k: dict(v) for k, v in recovered.tables.items()}
            self._schemas = dict(recovered.schemas)
            for database, _name in self._tables:
                self._databases.add(database)
            self._txn = max(self._txn, recovered.max_txn)
            self._txn_seeded = True
            report = recovered.report
            self.last_recovery = report
            metrics = get_metrics()
            for counter, value in report.counters().items():
                if value:
                    metrics.counter(counter).inc(value)
                    sp.incr(counter.split(".", 1)[1], value)
            sp.set_tag("clean", report.clean)

    @property
    def store(self) -> BlockStore:
        return self._store

    @property
    def durability(self) -> Durability:
        return self._durability

    @property
    def table_cache(self) -> TableCache:
        """The decoded-table/chunk LRU (for monitoring and tests)."""
        return self._cache

    def __setstate__(self, state: dict) -> None:
        # The store does not pickle its listeners: listen to the copy.
        self.__dict__.update(state)
        self._store.add_invalidation_listener(self._on_invalidated)

    def _on_invalidated(self, path: str) -> None:
        self.generation += 1
        self._stats.clear()
        self._cache.invalidate(path)
        self._manifests.pop(path, None)

    # ------------------------------------------------------------------
    # Databases
    # ------------------------------------------------------------------

    def create_database(self, name: str) -> None:
        """Create a database (idempotent)."""
        self._databases.add(name)

    def databases(self) -> list[str]:
        return sorted(self._databases)

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def save(
        self,
        table: Table,
        name: str,
        database: str = "default",
        partition: str | None = None,
    ) -> None:
        """Write ``table`` to the store and register it.

        A ``partition`` value (e.g. ``"month=3"``) appends or replaces one
        partition; omitted means the whole unpartitioned table.

        The write runs as one crash-atomic transaction: files are staged,
        an intent + commit record pair makes the decision durable, staged
        files are renamed into place (the manifest last, as the atomic
        visibility switch) and only then are the replaced version's files
        deleted.  A crash anywhere leaves either the old or the new
        version, recoverable by :meth:`open`.
        """
        if database not in self._databases:
            raise CatalogError(f"unknown database: {database}")
        key = (database, name)
        partition = partition or self.DEFAULT_PARTITION
        existing = self._schemas.get(key)
        if existing is not None and existing != table.schema:
            raise CatalogError(
                f"schema mismatch for {database}.{name}: partition schema "
                f"{table.schema!r} != table schema {existing!r}"
            )
        base = self._path_base(database, name, partition)
        path = base + MANIFEST_SUFFIX
        old = self._tables.get(key, {}).get(partition)
        self._crash("catalog.save.begin", f"{database}.{name}/{partition}")
        self._save_journaled(key, partition, table, base, path, old)

    def _encode_chunks(
        self, table: Table, base: str, txn: int, stage: str
    ) -> tuple[list[ChunkMeta], dict[str, object], dict[str, bytes]]:
        """Encode column chunks with version-stamped final paths.

        Returns ``(metas, arrays-by-final-path, payloads-by-staging-path)``.
        Version-stamping final chunk names with the txn id is what lets an
        overwrite publish without ever clobbering a committed chunk file.
        """
        metas: list[ChunkMeta] = []
        arrays: dict[str, object] = {}
        payloads: dict[str, bytes] = {}
        for column in table.schema:
            arr = table.column(column.name)
            payload, zone = encode_column(column, arr)
            dst = f"{base}/{column.name}.{txn:08d}{CHUNK_SUFFIX}"
            metas.append(
                ChunkMeta(
                    name=column.name,
                    ctype=column.ctype.value,
                    path=dst,
                    encoded_bytes=len(payload),
                    decoded_bytes=array_nbytes(arr),
                    zone=zone,
                )
            )
            arrays[dst] = arr
            payloads[f"{stage}/{column.name}{CHUNK_SUFFIX}"] = payload
        return metas, arrays, payloads

    def _save_journaled(
        self,
        key: tuple[str, str],
        partition: str,
        table: Table,
        base: str,
        path: str,
        old: str | None,
    ) -> None:
        database, name = key
        txn = self._next_txn()
        stage = staging_dir(database, name, txn)
        sync_every = self._durability.sync_every_write
        sync_commit = self._durability.sync_on_commit
        label = f"{database}.{name}/{partition}"
        moves: list[tuple[str, str]] = []
        crcs: dict[str, int] = {}
        metas, arrays, payloads = self._encode_chunks(table, base, txn, stage)
        for (src, payload), meta in zip(payloads.items(), metas):
            self._store.write(src, payload)
            if sync_every:
                self._store.fsync(src)
            crcs[src] = zlib.crc32(payload) & 0xFFFFFFFF
            moves.append((src, meta.path))
        manifest = PartitionManifest(
            rows=table.num_rows,
            chunks=tuple(metas),
            database=database,
            table=name,
            partition=partition,
        )
        manifest_payload = manifest.to_bytes()
        src = f"{stage}/manifest{MANIFEST_SUFFIX}"
        self._store.write(src, manifest_payload)
        if sync_every:
            self._store.fsync(src)
        crcs[src] = zlib.crc32(manifest_payload) & 0xFFFFFFFF
        # The manifest rename runs last: it is the visibility switch.
        moves.append((src, path))
        cleanup = (
            [f for f in self._partition_files_for_path(old) if f != path]
            if old is not None
            else []
        )
        journal = self._journal(database, name)
        intent_path = journal.append(
            "intent",
            {
                "op": "save",
                "partition": partition,
                "fmt": "v2",
                "path": path,
                "rows": table.num_rows,
                "schema": schema_doc(table.schema),
                "moves": [[s, d] for s, d in moves],
                "cleanup": cleanup,
                "crcs": crcs,
            },
            txn,
            sync=sync_every,
        )
        if sync_commit and not sync_every:
            # Barrier: staged data + intent must be durable before commit.
            for src, _dst in moves:
                self._store.fsync(src)
            self._store.fsync(intent_path)
        self._crash("catalog.save.barrier", label)
        journal.append("commit", {}, txn, sync=sync_commit)
        # Commit point: from here, recovery rolls this txn forward.
        self._crash("catalog.save.commit", label)
        for src, dst in moves:
            self._store.rename(src, dst)
            if sync_commit:
                self._store.fsync(dst)
        self._crash("catalog.save.published", label)
        for stale in cleanup:
            if self._store.exists(stale):
                self._store.delete(stale)
        self._crash("catalog.save.cleanup", label)
        journal.append("done", {}, txn, sync=False)
        # Update registration, schema, and caches after the publish; the
        # writes invalidated any stale entries, so cache the fresh chunks.
        if old is not None:
            self._temp.pop(old, None)
        self._tables.setdefault(key, {})[partition] = path
        self._schemas[key] = table.schema
        self._stats.pop(key, None)
        self._manifests[path] = manifest
        for chunk_path, arr in arrays.items():
            self._cache.put(chunk_path, arr, array_nbytes(arr))
        self._maybe_compact(journal, key)

    def register_temp(
        self,
        table: Table,
        name: str,
        database: str = "default",
    ) -> None:
        """Register an in-memory table as a temp view (not persisted).

        The Spark analogue is ``createOrReplaceTempView``: the table is
        queryable like any other but lives only in this catalog instance and
        writes no bytes to the block store.  Re-registering replaces it.
        """
        if database not in self._databases:
            raise CatalogError(f"unknown database: {database}")
        key = (database, name)
        existing = self._schemas.get(key)
        if existing is not None and key in self._tables:
            for path in self._tables[key].values():
                if self._store.exists(path):
                    raise CatalogError(
                        f"{database}.{name} is a persisted table; "
                        f"drop it before registering a temp view"
                    )
        path = f"/tmpview/{database}/{name}"
        self._tables[key] = {self.DEFAULT_PARTITION: path}
        self._schemas[key] = table.schema
        self._temp[path] = table
        self._stats.pop(key, None)
        self.generation += 1

    def load(
        self,
        name: str,
        database: str = "default",
        partition: str | None = None,
    ) -> Table:
        """Read a table (all partitions concatenated, or one partition)."""
        key = self._resolve(name, database)
        parts = self._tables[key]
        if partition is not None:
            if partition not in parts:
                raise CatalogError(
                    f"no partition {partition!r} in {key[0]}.{key[1]}; "
                    f"available: {sorted(parts)}"
                )
            return self._read(parts[partition])
        return Table.concat([self._read(parts[p]) for p in sorted(parts)])

    def scan(
        self,
        name: str,
        database: str = "default",
        columns: list[str] | tuple[str, ...] | None = None,
        predicate: list[ScanPredicate] | None = None,
    ) -> Table:
        """Read a table fetching only ``columns``, pruning by ``predicate``.

        ``columns`` (when given) projects the result in the given order;
        names the table does not have are ignored.  ``predicate`` is a list
        of AND-ed :class:`~.columnar.ScanPredicate` conjuncts used purely
        to *skip* partitions whose zone maps prove no row can match —
        surviving partitions are returned unfiltered, so callers must still
        apply their full predicate.  Temp views never prune (no zone maps)
        and simply project.
        """
        key = self._resolve(name, database)
        parts = self._tables[key]
        schema = self._schemas[key]
        sel: list[str] | None = None
        if columns is not None:
            sel = [c for c in columns if c in schema]
        health = self._store.health
        metrics = get_metrics()
        with span("catalog.scan", table=f"{key[0]}.{key[1]}") as sp:

            def count_skipped(metas) -> None:
                saved = sum(m.decoded_bytes for m in metas)
                health.chunks_skipped += len(metas)
                health.bytes_decoded_saved += saved
                sp.incr("chunks_skipped", len(metas))
                sp.incr("bytes_decoded_saved", saved)
                metrics.counter("columnar.chunks_skipped").inc(len(metas))
                metrics.counter("columnar.bytes_decoded_saved").inc(saved)

            pieces: list[Table] = []
            for pname in sorted(parts):
                path = parts[pname]
                if path not in self._temp:
                    manifest = self._manifest(path)
                    if predicate and not manifest_allows(manifest, predicate):
                        health.partitions_pruned += 1
                        sp.incr("partitions_pruned")
                        metrics.counter("columnar.partitions_pruned").inc()
                        count_skipped(manifest.chunks)
                        continue
                    if sel is not None:
                        projected_away = [
                            m for m in manifest.chunks if m.name not in sel
                        ]
                        if projected_away:
                            count_skipped(projected_away)
                pieces.append(self._read(path, sel))
            if not pieces:
                out_schema = schema if sel is None else schema.select(sel)
                sp.incr("rows", 0)
                return Table.empty(out_schema)
            out = Table.concat(pieces)
            sp.incr("rows", out.num_rows)
        return out

    def exists(self, name: str, database: str = "default") -> bool:
        return (database, name) in self._tables

    def clear_cache(self) -> None:
        """Drop cached deserialized tables/chunks and manifests (temp views
        are kept).

        Subsequent loads re-read from the block store — the path chaos
        tests exercise; ``save`` and ``load`` both repopulate the cache, so
        this only costs one deserialization per chunk.
        """
        self._cache.clear()
        self._manifests.clear()

    def drop_partition(
        self, name: str, partition: str, database: str = "default"
    ) -> None:
        """Drop one partition of a table, deleting its file(s).

        Dropping the last partition removes the table itself (and its
        journal).  This is the retention primitive of the telemetry
        warehouse: expiring a run is a set of partition drops, never a
        rewrite of surviving rows.
        """
        key = self._resolve(name, database)
        parts = self._tables[key]
        if partition not in parts:
            raise CatalogError(
                f"no partition {partition!r} in {database}.{name}; "
                f"available: {sorted(parts)}"
            )
        path = parts[partition]
        label = f"{database}.{name}/{partition}"
        self._stats.pop(key, None)
        self._crash("catalog.drop.begin", label)
        if path in self._temp:
            # A temp view has no files and was never journaled.
            parts.pop(partition)
            del self._temp[path]
            self.generation += 1
            if not parts:
                del self._tables[key]
                del self._schemas[key]
                self._journal(database, name).destroy()
            return
        cleanup = self._partition_files_for_path(path)
        txn = self._next_txn()
        sync_every = self._durability.sync_every_write
        sync_commit = self._durability.sync_on_commit
        journal = self._journal(database, name)
        intent_path = journal.append(
            "intent",
            {
                "op": "drop",
                "partition": partition,
                "path": path,
                "cleanup": cleanup,
            },
            txn,
            sync=sync_every,
        )
        if sync_commit and not sync_every:
            self._store.fsync(intent_path)
        self._crash("catalog.drop.barrier", label)
        journal.append("commit", {}, txn, sync=sync_commit)
        self._crash("catalog.drop.commit", label)
        for stale in cleanup:
            if self._store.exists(stale):
                self._store.delete(stale)
        self._crash("catalog.drop.cleanup", label)
        journal.append("done", {}, txn, sync=False)
        parts.pop(partition)
        self._cache.invalidate(path)
        self._manifests.pop(path, None)
        if not parts:
            del self._tables[key]
            del self._schemas[key]
            journal.destroy()
        else:
            self._maybe_compact(journal, key)

    def drop(self, name: str, database: str = "default") -> None:
        """Drop a table and delete its files (one transaction per
        partition — a crash mid-drop leaves the surviving partitions
        intact and registered)."""
        key = self._resolve(name, database)
        for partition in sorted(self._tables[key]):
            self.drop_partition(name, partition, database)

    def info(self, name: str, database: str = "default") -> TableInfo:
        """Describe a table."""
        key = self._resolve(name, database)
        return TableInfo(
            database=key[0],
            name=key[1],
            schema=self._schemas[key],
            partitions=tuple(sorted(self._tables[key])),
        )

    def table_stats(
        self, name: str, database: str = "default"
    ) -> TableStats | None:
        """Statistics for the binder: row count + per-column stats.

        Temp views compute exact stats from the in-memory arrays; persisted
        tables roll up their partition zone maps without decoding any
        chunk.  Results are memoized per table and invalidated by saves,
        drops, temp re-registration, and any store-level byte change.
        """
        key = self._resolve(name, database)
        if key in self._stats:
            return self._stats[key]
        stats: TableStats | None
        paths = [self._tables[key][p] for p in sorted(self._tables[key])]
        if all(p in self._temp for p in paths):
            # A temp view is a single in-memory partition; exact stats.
            table = self._temp[paths[0]]
            stats = TableStats(
                rows=table.num_rows,
                columns={
                    col: column_stats_from_array(table.column(col))
                    for col in table.schema.names
                },
                exact=True,
            )
        elif not any(p in self._temp for p in paths):
            stats = rollup_table_stats([self._manifest(p) for p in paths])
        else:
            # A temp view with persisted partitions saved beside it: the
            # binder falls back to conservative defaults.
            stats = None
        self._stats[key] = stats
        return stats

    def tables(self, database: str = "default") -> list[str]:
        """Table names in one database, sorted."""
        return sorted(n for (db, n) in self._tables if db == database)

    def partitions(self, name: str, database: str = "default") -> list[str]:
        key = self._resolve(name, database)
        return sorted(self._tables[key])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resolve(self, name: str, database: str) -> tuple[str, str]:
        key = (database, name)
        if key not in self._tables:
            raise CatalogError(
                f"unknown table: {database}.{name}; "
                f"available: {self.tables(database)}"
            )
        return key

    def _crash(self, label: str, detail: str = "") -> None:
        """Named crash site for the crash-consistency sweep harness."""
        injector = self._store.injector
        if injector is not None and injector.crash_point is not None:
            injector.crash_point.hit(label, detail)

    def _journal(self, database: str, name: str) -> TableJournal:
        return TableJournal(self._store, database, name, self._durability)

    def _next_txn(self) -> int:
        if not self._txn_seeded:
            # Never reuse a txn id already on the store: versioned chunk
            # names derive from it, and a collision could overwrite a
            # committed chunk of the same partition.
            self._txn_seeded = True
            self._txn = max(self._txn, txn_floor(self._store))
        self._txn += 1
        return self._txn

    def _maybe_compact(self, journal: TableJournal, key: tuple[str, str]) -> None:
        if len(journal.record_files()) <= self._durability.compact_after:
            return
        self._crash("catalog.compact", f"{key[0]}.{key[1]}")
        journal.compact(
            self._next_txn(), self._tables.get(key, {}), self._schemas.get(key)
        )

    def partition_files(
        self,
        name: str,
        partition: str | None = None,
        database: str = "default",
    ) -> list[str]:
        """Store files backing one partition (or every partition).

        Includes chunk files a torn overwrite left in the partition's
        chunk directory, which is what drop and fsck must remove.  Temp
        views contribute nothing — they have no backing files.
        """
        key = self._resolve(name, database)
        parts = self._tables[key]
        targets = [partition] if partition is not None else sorted(parts)
        files: set[str] = set()
        for pname in targets:
            if pname not in parts:
                raise CatalogError(
                    f"no partition {pname!r} in {database}.{name}; "
                    f"available: {sorted(parts)}"
                )
            files.update(self._partition_files_for_path(parts[pname]))
        return sorted(files)

    def _partition_files_for_path(self, path: str) -> list[str]:
        if path in self._temp:
            return []
        return partition_residue(self._store, path)

    def _manifest(self, path: str) -> PartitionManifest:
        manifest = self._manifests.get(path)
        if manifest is None:
            manifest = PartitionManifest.from_bytes(self._store.read(path))
            self._manifests[path] = manifest
        return manifest

    def _read(self, path: str, columns: list[str] | None = None) -> Table:
        """One partition as a table: a temp view, or its column chunks
        assembled through the per-chunk cache."""
        temp = self._temp.get(path)
        if temp is not None:
            return temp if columns is None else temp.select(columns)
        manifest = self._manifest(path)
        if columns is None:
            metas = list(manifest.chunks)
        else:
            metas = [m for c in columns if (m := manifest.chunk(c)) is not None]
        data = {}
        cols = []
        for meta in metas:
            arr = self._cache.get(meta.path)
            if arr is None:
                arr = decode_column(self._store.read(meta.path))
                nbytes = array_nbytes(arr)
                self._store.health.bytes_decoded += nbytes
                current_span().incr("bytes_decoded", nbytes)
                self._cache.put(meta.path, arr, nbytes)
            data[meta.name] = arr
            cols.append(meta.column)
        return Table(Schema(cols), data)

    @staticmethod
    def table_dir(name: str, database: str = "default") -> str:
        """Block-store directory (with trailing slash) under which every
        file of one persisted table lives — the prefix to match against
        the paths a store invalidation listener receives."""
        return f"/warehouse/{database}/{name}/"

    @staticmethod
    def _path_base(database: str, name: str, partition: str) -> str:
        safe = partition.replace("=", "_").replace("/", "_")
        return Catalog.table_dir(name, database) + safe
