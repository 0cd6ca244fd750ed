"""A mini-HDFS: namenode metadata over replicated block storage.

The paper stores its raw BSS/OSS tables on HDFS.  This module reproduces the
storage model in-process: files are split into fixed-size blocks, each block
is replicated onto ``replication`` distinct (simulated) datanodes, and a
namenode keeps the file → block → datanode mapping.  Datanode failures can be
injected to exercise re-replication, which the tests use for fault-injection
coverage.
"""

from __future__ import annotations

import base64
import hashlib
import weakref
from bisect import bisect_left, insort
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field

from ..errors import StorageError, TransientError
from .observability import current_span, get_metrics, span
from .resilience import FaultInjector, RetryPolicy, SimClock

#: Default block size.  Real HDFS uses 128 MB; our synthetic tables are small
#: so a smaller default keeps multiple blocks per file in play.
DEFAULT_BLOCK_SIZE = 1 << 20

#: Default decoded-bytes budget of the catalog's table cache (256 MB).
DEFAULT_TABLE_CACHE_BYTES = 256 << 20


@dataclass(frozen=True)
class BlockInfo:
    """Metadata for one block of a file."""

    block_id: str
    length: int
    replicas: tuple[int, ...]


@dataclass
class StorageHealth:
    """Counters for the store's self-healing read path and table cache."""

    corrupt_replicas_detected: int = 0
    replicas_repaired: int = 0
    replicas_recreated: int = 0
    transient_read_failures: int = 0
    read_retries: int = 0
    files_healed: int = 0
    #: fsync barriers issued by durability-aware writers (journal/catalog).
    fsyncs: int = 0
    #: Decoded-table cache traffic (maintained by the owning catalog).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: v2 scan pruning (maintained by the owning catalog): column chunks
    #: never fetched (projection or zone-map skips), whole partitions
    #: skipped by zone maps, and the encoded bytes those skips saved.
    chunks_skipped: int = 0
    partitions_pruned: int = 0
    bytes_decoded_saved: int = 0
    #: Decoded bytes actually materialized on cache misses (v1 table blocks
    #: and v2 column chunks) — the flip side of ``bytes_decoded_saved``,
    #: attributed per operator by the SQL profile collector.
    bytes_decoded: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of table reads served without re-decoding npz blocks."""
        reads = self.cache_hits + self.cache_misses
        return self.cache_hits / reads if reads else 0.0


class TableCache:
    """LRU cache of decoded tables, bounded by decoded bytes.

    The paper re-reads intermediate feature tables "many times"; decoding
    the same npz blocks on every month-window scan dominated repeated
    reads.  This cache keeps the *decoded* tables, evicting least-recently
    used entries once the decoded-bytes budget is exceeded.  Hit/miss/
    eviction traffic is recorded on a :class:`StorageHealth` so monitoring
    sees cache effectiveness next to the repair counters.

    An entry larger than the whole budget is never admitted (it would just
    evict everything for a single-use tenancy).
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_TABLE_CACHE_BYTES,
        health: StorageHealth | None = None,
    ) -> None:
        if max_bytes < 0:
            raise StorageError(f"max_bytes must be >= 0, got {max_bytes}")
        self._max_bytes = max_bytes
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()
        self._bytes = 0
        self.health = health if health is not None else StorageHealth()

    @property
    def current_bytes(self) -> int:
        return self._bytes

    @property
    def max_bytes(self) -> int:
        return self._max_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str):
        """The cached value, or ``None``; counts a hit or miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.health.cache_misses += 1
            get_metrics().counter("table_cache.misses").inc()
            current_span().incr("cache_misses")
            return None
        self._entries.move_to_end(key)
        self.health.cache_hits += 1
        get_metrics().counter("table_cache.hits").inc()
        current_span().incr("cache_hits")
        return entry[0]

    def peek(self, key: str):
        """The cached value without touching LRU order or counters."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def put(self, key: str, value: object, nbytes: int) -> None:
        """Insert/replace an entry and evict LRU entries over budget."""
        if key in self._entries:
            self._bytes -= self._entries.pop(key)[1]
        if nbytes > self._max_bytes:
            # Too big to ever cache; make sure no stale copy survives.
            return
        self._entries[key] = (value, nbytes)
        self._bytes += nbytes
        while self._bytes > self._max_bytes and self._entries:
            _, (_, evicted) = self._entries.popitem(last=False)
            self._bytes -= evicted
            self.health.cache_evictions += 1
            get_metrics().counter("table_cache.evictions").inc()

    def invalidate(self, key: str) -> None:
        """Drop one entry (no-op if absent)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry[1]

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0


@dataclass(frozen=True)
class FileStatus:
    """Metadata for one file, as reported by the namenode."""

    path: str
    length: int
    block_size: int
    replication: int
    blocks: tuple[BlockInfo, ...] = field(repr=False)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


class _DataNode:
    """One simulated datanode holding block payloads."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.blocks: dict[str, bytes] = {}
        #: Sum of the held payload lengths — what the balancer sorts on.
        #: ``store``/``drop`` are the only mutations of ``blocks``.
        self.used_bytes = 0
        self.alive = True

    def store(self, block_id: str, payload: bytes) -> None:
        """Hold ``payload`` as ``block_id``, replacing any earlier copy."""
        self.drop(block_id)
        self.blocks[block_id] = payload
        self.used_bytes += len(payload)

    def drop(self, block_id: str) -> None:
        """Forget ``block_id``; no-op if this node holds no copy."""
        payload = self.blocks.pop(block_id, None)
        if payload is not None:
            self.used_bytes -= len(payload)


class BlockStore:
    """Namenode + datanodes in one object.

    Parameters
    ----------
    num_nodes:
        Number of simulated datanodes.
    replication:
        Replicas per block (capped at ``num_nodes``).
    block_size:
        Bytes per block.
    fault_injector:
        Optional chaos source; when set, reads can fail transiently
        (``read_failure`` faults), which ``retry_policy`` absorbs.
    retry_policy:
        Backoff schedule for transient read failures; ``None`` means reads
        are attempted exactly once.
    clock:
        Simulated clock charged for backoff sleeps.
    auto_repair:
        When true (the default), the read path self-heals: corrupt replicas
        are rewritten from a checksum-verified copy and blocks that lost
        replicas to dead datanodes are re-replicated as soon as a read
        notices, instead of waiting for a manual :meth:`re_replicate`.
    volatile:
        When true, the store models an OS page cache: every mutation
        (write/delete/rename/truncate) is applied immediately but is
        *durable* only once :meth:`fsync` is called on the path.
        :meth:`crash` reverts all unsynced mutations to their last synced
        content — this is what makes the journal's fsync barriers testable
        rather than decorative.  The default (non-volatile) store treats
        every mutation as instantly durable and ``fsync`` as a counted
        no-op.
    """

    def __init__(
        self,
        num_nodes: int = 3,
        replication: int = 2,
        block_size: int = DEFAULT_BLOCK_SIZE,
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        clock: SimClock | None = None,
        auto_repair: bool = True,
        volatile: bool = False,
    ) -> None:
        if num_nodes < 1:
            raise StorageError(f"need at least one datanode, got {num_nodes}")
        if replication < 1:
            raise StorageError(f"replication must be >= 1, got {replication}")
        if block_size < 1:
            raise StorageError(f"block_size must be >= 1, got {block_size}")
        self._nodes = [_DataNode(i) for i in range(num_nodes)]
        self._replication = min(replication, num_nodes)
        self._block_size = block_size
        self._files: dict[str, FileStatus] = {}
        #: The keys of ``_files`` in sorted order, so a prefix listing is
        #: two bisects instead of a walk of the whole namespace.
        self._paths: list[str] = []
        self._next_block = 0
        self._injector = fault_injector
        self._retry = retry_policy
        self._clock = clock if clock is not None else SimClock()
        self._auto_repair = auto_repair
        self._volatile = volatile
        #: Last-synced content per dirty path (``None`` = did not exist);
        #: only populated in volatile mode, first capture wins.
        self._preimages: dict[str, bytes | None] = {}
        self.health = StorageHealth()
        self._invalidation_listeners: list[weakref.WeakMethod] = []

    @property
    def injector(self) -> FaultInjector | None:
        """The attached chaos source (crash points ride on it), if any."""
        return self._injector

    def _crash_hit(self, label: str, detail: str = "") -> None:
        if self._injector is not None and self._injector.crash_point is not None:
            self._injector.crash_point.hit(label, detail)

    def add_invalidation_listener(self, listener: Callable[[str], None]) -> None:
        """Register a bound method fired with a path whenever its bytes
        may have changed (write, delete, repair, deliberate corruption) —
        the catalog uses this to evict stale decoded tables.

        The store holds the method weakly: it never keeps the method's
        object alive (a dropped catalog is freed at once instead of
        lingering as a store <-> catalog cycle until the collector runs),
        and a dead listener is forgotten.  Listeners are not pickled; an
        owner that can be unpickled registers again in ``__setstate__``.
        """
        self._invalidation_listeners.append(weakref.WeakMethod(listener))

    def _notify_invalidation(self, path: str) -> None:
        dead = False
        for ref in self._invalidation_listeners:
            listener = ref()
            if listener is None:
                dead = True
            else:
                listener(path)
        if dead:
            self._invalidation_listeners = [
                ref for ref in self._invalidation_listeners if ref() is not None
            ]

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_invalidation_listeners"] = []
        return state

    @property
    def corrupt_replicas_detected(self) -> int:
        """Checksum failures noticed on the read path (monitoring hook)."""
        return self.health.corrupt_replicas_detected

    # ------------------------------------------------------------------
    # File operations
    # ------------------------------------------------------------------

    def write(self, path: str, payload: bytes, overwrite: bool = True) -> FileStatus:
        """Write ``payload`` at ``path``, splitting into replicated blocks."""
        _validate_path(path)
        self._crash_hit("blockstore.write", path)
        with span("blockstore.write", path=path) as sp:
            if path in self._files and not overwrite:
                raise StorageError(f"file exists: {path}")
            self._capture(path)
            self._free_file(path)
            status = self._install_file(path, payload)
            self._notify_invalidation(path)
            sp.incr("bytes", len(payload))
            sp.incr("blocks", status.num_blocks)
            get_metrics().counter("blockstore.bytes_written").inc(len(payload))
        return status

    def rename(self, src: str, dst: str, overwrite: bool = True) -> FileStatus:
        """Atomically move ``src`` to ``dst`` (POSIX ``rename(2)`` model).

        The file's blocks move by metadata update only — no payload copy,
        no re-checksum — and the swap is all-or-nothing: readers observe
        either the old ``dst`` or the complete new one, never a torn mix.
        This is the catalog's commit primitive for publishing staged files.
        """
        _validate_path(src)
        _validate_path(dst)
        self._crash_hit("blockstore.rename", f"{src} -> {dst}")
        status = self.status(src)
        if src == dst:
            return status
        with span("blockstore.rename", src=src, dst=dst):
            if dst in self._files and not overwrite:
                raise StorageError(f"file exists: {dst}")
            self._capture(src)
            self._capture(dst)
            self._free_file(dst)
            moved = FileStatus(
                path=dst,
                length=status.length,
                block_size=status.block_size,
                replication=status.replication,
                blocks=status.blocks,
            )
            del self._files[src]
            del self._paths[bisect_left(self._paths, src)]
            self._files[dst] = moved
            insort(self._paths, dst)
            self._notify_invalidation(src)
            self._notify_invalidation(dst)
            get_metrics().counter("blockstore.renames").inc()
        return moved

    def read(self, path: str) -> bytes:
        """Read the full contents of ``path`` from any live replica.

        Transient faults (when a :class:`FaultInjector` is attached) are
        retried per the store's :class:`RetryPolicy`; corrupt replicas are
        detected by checksum, skipped, and — with ``auto_repair`` —
        rewritten from a good copy.  If the read notices any block running
        below target replication (dead datanode), the file is re-replicated
        immediately.
        """
        status = self.status(path)

        def attempt() -> bytes:
            return b"".join(self._fetch_block(b) for b in status.blocks)

        def on_retry(retry_index: int, pause: float, exc: BaseException) -> None:
            self.health.read_retries += 1
            sp.incr("retries")

        with span("blockstore.read", path=path) as sp:
            if self._retry is None:
                payload = attempt()
            else:
                payload = self._retry.call(
                    attempt, clock=self._clock, on_retry=on_retry
                )
            if self._auto_repair and self._under_replicated(status):
                self._heal_file(path)
            sp.incr("bytes", len(payload))
            get_metrics().counter("blockstore.bytes_read").inc(len(payload))
        return payload

    def _under_replicated(self, status: FileStatus) -> bool:
        return any(
            sum(
                1
                for nid in block.replicas
                if self._nodes[nid].alive
                and block.block_id in self._nodes[nid].blocks
            )
            < self._replication
            for block in status.blocks
        )

    def status(self, path: str) -> FileStatus:
        """Namenode metadata for ``path``."""
        try:
            return self._files[path]
        except KeyError:
            raise StorageError(f"no such file: {path}") from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        """Delete ``path`` and free its blocks on all datanodes."""
        self.status(path)
        self._crash_hit("blockstore.delete", path)
        self._capture(path)
        self._free_file(path)
        self._notify_invalidation(path)

    def list_files(self, prefix: str = "/") -> list[str]:
        """All file paths under ``prefix``, sorted."""
        paths = self._paths
        lo = bisect_left(paths, prefix)
        # From ``lo`` on, "does not start with prefix" goes False…True once.
        hi = bisect_left(
            paths, True, lo=lo, key=lambda p: not p.startswith(prefix)
        )
        return paths[lo:hi]

    # ------------------------------------------------------------------
    # Durability model
    # ------------------------------------------------------------------

    def fsync(self, path: str) -> None:
        """Make all mutations to ``path`` durable (survive :meth:`crash`).

        Counted even on the default non-volatile store so benchmarks and
        fsck see barrier traffic; lenient about paths that no longer exist
        (syncing a delete is itself a mutation to persist).
        """
        self.health.fsyncs += 1
        get_metrics().counter("blockstore.fsyncs").inc()
        self._preimages.pop(path, None)

    def fsync_all(self) -> None:
        """Make every pending mutation durable (one barrier)."""
        self.health.fsyncs += 1
        get_metrics().counter("blockstore.fsyncs").inc()
        self._preimages.clear()

    def crash(self) -> list[str]:
        """Simulate power loss: revert every unsynced mutation.

        Only meaningful on a ``volatile`` store (no-op otherwise).  Each
        dirty path reverts to its last fsynced content — or disappears, if
        it was created after the last sync.  Returns the affected paths.
        """
        if not self._volatile or not self._preimages:
            return []
        preimages, self._preimages = self._preimages, {}
        affected = sorted(preimages)
        for path in affected:
            self._free_file(path)
            pre = preimages[path]
            if pre is not None:
                self._install_file(path, pre)
            self._notify_invalidation(path)
        return affected

    def truncate(self, path: str, length: int) -> None:
        """Cut ``path`` to its first ``length`` bytes (torn-write model).

        Crash tests use this to simulate a write that made it only
        partially to disk: the tail of the last journal record or chunk
        file is sliced off at an arbitrary byte offset and recovery must
        still produce a valid catalog.
        """
        if length < 0:
            raise StorageError(f"length must be >= 0, got {length}")
        status = self.status(path)
        if length >= status.length:
            return
        payload = self._read_raw(path)[:length]
        self._capture(path)
        self._free_file(path)
        self._install_file(path, payload)
        self._notify_invalidation(path)

    @property
    def total_bytes(self) -> int:
        """Logical bytes stored (pre-replication)."""
        return sum(s.length for s in self._files.values())

    @property
    def physical_bytes(self) -> int:
        """Physical bytes across all datanodes (post-replication)."""
        return sum(n.used_bytes for n in self._nodes)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def kill_node(self, node_id: int) -> None:
        """Simulate a datanode failure; its replicas become unreadable."""
        self._node(node_id).alive = False

    def revive_node(self, node_id: int) -> None:
        """Bring a dead datanode back (its blocks are intact)."""
        self._node(node_id).alive = True

    def re_replicate(self) -> int:
        """Restore the replication factor after node deaths.

        Returns the number of new replicas created.  Every recoverable
        block is healed even when others are lost; blocks with no live
        replica are collected and reported in one :class:`StorageError` at
        the end, so a partial scan never leaves earlier files half-restored
        behind a mid-scan exception.
        """
        created = 0
        lost: list[str] = []
        for path in list(self._files):
            file_created, file_lost = self._restore_file(path)
            created += file_created
            lost.extend(f"{blk} of {path}" for blk in file_lost)
        if lost:
            raise StorageError(
                f"{len(lost)} block(s) lost all replicas: {', '.join(lost)}"
            )
        return created

    def _restore_file(self, path: str) -> tuple[int, list[str]]:
        """Re-replicate one file's recoverable blocks.

        Returns ``(replicas created, block ids lost beyond recovery)``.
        Metadata is updated to reflect exactly what exists, including for
        partially-lost files (their healthy blocks are still healed).
        """
        status = self._files[path]
        live = [n for n in self._nodes if n.alive]
        created = 0
        lost: list[str] = []
        new_blocks = []
        for block in status.blocks:
            replicas = [
                nid
                for nid in block.replicas
                if self._nodes[nid].alive
                and block.block_id in self._nodes[nid].blocks
            ]
            if not replicas:
                lost.append(block.block_id)
                new_blocks.append(BlockInfo(block.block_id, block.length, ()))
                continue
            if len(replicas) < self._replication:
                payload = self._verified_payload(block, replicas)
                if payload is not None:
                    for node in live:
                        if len(replicas) >= self._replication:
                            break
                        if node.node_id in replicas:
                            continue
                        node.store(block.block_id, payload)
                        replicas.append(node.node_id)
                        created += 1
                        self.health.replicas_recreated += 1
            new_blocks.append(
                BlockInfo(block.block_id, block.length, tuple(replicas))
            )
        self._files[path] = FileStatus(
            path=status.path,
            length=status.length,
            block_size=status.block_size,
            replication=status.replication,
            blocks=tuple(new_blocks),
        )
        if created or lost:
            self._notify_invalidation(path)
        return created, lost

    def _heal_file(self, path: str) -> int:
        """Read-path trigger: re-replicate one file, best effort."""
        with span("blockstore.repair", path=path) as sp:
            created, lost = self._restore_file(path)
            if created and not lost:
                self.health.files_healed += 1
            sp.incr("replicas_created", created)
            get_metrics().counter("blockstore.replicas_recreated").inc(created)
        return created

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _node(self, node_id: int) -> _DataNode:
        if not 0 <= node_id < len(self._nodes):
            raise StorageError(f"no such datanode: {node_id}")
        return self._nodes[node_id]

    def _capture(self, path: str) -> None:
        """Record ``path``'s last-synced content before dirtying it.

        First capture wins: if the path is already dirty, its preimage is
        the synced content, not the intermediate dirty one.
        """
        if not self._volatile or path in self._preimages:
            return
        self._preimages[path] = (
            self._read_raw(path) if path in self._files else None
        )

    def _free_file(self, path: str) -> None:
        """Drop ``path``'s metadata and blocks; no-op if absent."""
        status = self._files.pop(path, None)
        if status is None:
            return
        del self._paths[bisect_left(self._paths, path)]
        for block in status.blocks:
            for node_id in block.replicas:
                self._nodes[node_id].drop(block.block_id)

    def _install_file(self, path: str, payload: bytes) -> FileStatus:
        """Store ``payload`` as fresh replicated blocks under ``path``."""
        blocks = []
        for offset in range(0, max(len(payload), 1), self._block_size):
            chunk = payload[offset : offset + self._block_size]
            blocks.append(self._store_block(chunk))
        status = FileStatus(
            path=path,
            length=len(payload),
            block_size=self._block_size,
            replication=self._replication,
            blocks=tuple(blocks),
        )
        self._files[path] = status
        insort(self._paths, path)
        return status

    def _read_raw(self, path: str) -> bytes:
        """Checksum-verified read without fault injection or telemetry."""
        status = self._files[path]
        parts = []
        for block in status.blocks:
            expected = block.block_id.rsplit("_", 1)[-1]
            chunk = None
            for node_id in block.replicas:
                node = self._nodes[node_id]
                candidate = node.blocks.get(block.block_id)
                if (
                    node.alive
                    and candidate is not None
                    and _digest(candidate) == expected
                ):
                    chunk = candidate
                    break
            if chunk is None:
                raise StorageError(f"no live replica for block {block.block_id}")
            parts.append(chunk)
        return b"".join(parts)

    # ------------------------------------------------------------------
    # Snapshots (fsck CLI interchange format)
    # ------------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """A JSON-serializable snapshot of config + logical file contents."""
        return {
            "format": 1,
            "config": {
                "num_nodes": len(self._nodes),
                "replication": self._replication,
                "block_size": self._block_size,
            },
            "files": {
                path: base64.b64encode(self._read_raw(path)).decode("ascii")
                for path in sorted(self._files)
            },
        }

    @classmethod
    def from_snapshot(cls, doc: dict) -> "BlockStore":
        """Rebuild a store from :meth:`to_snapshot` output."""
        if doc.get("format") != 1:
            raise StorageError(
                f"unsupported snapshot format: {doc.get('format')!r}"
            )
        config = doc.get("config", {})
        store = cls(
            num_nodes=int(config.get("num_nodes", 3)),
            replication=int(config.get("replication", 2)),
            block_size=int(config.get("block_size", DEFAULT_BLOCK_SIZE)),
        )
        for path, encoded in sorted(doc.get("files", {}).items()):
            store.write(path, base64.b64decode(encoded))
        return store

    def _store_block(self, chunk: bytes) -> BlockInfo:
        block_id = f"blk_{self._next_block:012d}_{_digest(chunk)}"
        self._next_block += 1
        live = [n for n in self._nodes if n.alive]
        if not live:
            raise StorageError("no live datanodes")
        # Place replicas on the emptiest live nodes (simple balancer).
        live.sort(key=lambda n: n.used_bytes)
        targets = live[: self._replication]
        for node in targets:
            node.store(block_id, chunk)
        return BlockInfo(block_id, len(chunk), tuple(n.node_id for n in targets))

    def _verified_payload(
        self, block: BlockInfo, replicas: list[int]
    ) -> bytes | None:
        """A checksum-verified copy of ``block``, or None if all are bad.

        Never hands back a corrupt payload — re-replication must not
        multiply corruption.
        """
        expected = block.block_id.rsplit("_", 1)[-1]
        for node_id in replicas:
            chunk = self._nodes[node_id].blocks.get(block.block_id)
            if chunk is not None and _digest(chunk) == expected:
                return chunk
        return None

    def _fetch_block(self, block: BlockInfo) -> bytes:
        if self._injector is not None and self._injector.should("read_failure"):
            self.health.transient_read_failures += 1
            raise TransientError(
                f"injected transient read failure on block {block.block_id}"
            )
        expected = block.block_id.rsplit("_", 1)[-1]
        corrupt_on: list[_DataNode] = []
        good: bytes | None = None
        for node_id in block.replicas:
            node = self._nodes[node_id]
            if node.alive and block.block_id in node.blocks:
                chunk = node.blocks[block.block_id]
                if _digest(chunk) != expected:
                    # Corrupt replica: count it so monitoring and the
                    # repair path can see it, then try the next copy.
                    self.health.corrupt_replicas_detected += 1
                    corrupt_on.append(node)
                    continue
                good = chunk
                break
        if good is None:
            raise StorageError(f"no live replica for block {block.block_id}")
        if self._auto_repair:
            for node in corrupt_on:
                node.store(block.block_id, good)
                self.health.replicas_repaired += 1
                get_metrics().counter("blockstore.replicas_repaired").inc()
        return good

    def corrupt_block(self, path: str, block_index: int, node_id: int) -> None:
        """Flip bytes of one replica (fault injection for checksum paths)."""
        status = self.status(path)
        if not 0 <= block_index < len(status.blocks):
            raise StorageError(f"{path} has no block #{block_index}")
        block = status.blocks[block_index]
        node = self._node(node_id)
        if block.block_id not in node.blocks:
            raise StorageError(f"node {node_id} holds no replica of that block")
        payload = bytearray(node.blocks[block.block_id])
        if payload:
            payload[0] ^= 0xFF
        node.store(block.block_id, bytes(payload))
        # A cached decoded copy would mask the corruption from read paths.
        self._notify_invalidation(path)


def _digest(chunk: bytes) -> str:
    return hashlib.sha1(chunk).hexdigest()[:10]


def _validate_path(path: str) -> None:
    if not path.startswith("/"):
        raise StorageError(f"paths must be absolute, got {path!r}")
    if "//" in path or path.endswith("/"):
        raise StorageError(f"malformed path: {path!r}")
