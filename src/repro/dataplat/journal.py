"""Write-ahead journal: crash-atomic catalog mutations, recovery, fsck.

Every persistent catalog mutation (partition save/overwrite, drop,
telemetry-sink append) runs as a journaled transaction:

1. **Stage** — new files are written under
   ``/warehouse/{db}/{table}/.staging/{txn}/``, never at their final
   paths.  Column chunks get version-stamped final names
   (``{col}.{txn:08d}.chunk``) so publishing can never clobber a
   previously committed chunk.
2. **Intent** — a checksummed record listing every planned rename
   (``moves``), every post-commit delete (``cleanup``) and the staged
   files' CRCs is appended to the per-table journal at
   ``/journal/{db}/{table}/{txn:08d}-intent.rec``.
3. **Barrier** — staged files and the intent record are fsynced (per the
   :class:`Durability` mode).
4. **Commit** — a commit record is appended and fsynced.  This is the
   durable decision point: recovery rolls a transaction *forward* iff its
   commit record survives.
5. **Publish** — staged files are renamed to their final paths (column
   chunks first, the partition manifest last — the manifest rename is the
   atomic visibility switch for readers).
6. **Cleanup** — files of the replaced version are deleted, and a *done*
   record marks the transaction finished.

Recovery (:func:`plan_recovery` + :func:`apply_recovery`, driven by
``Catalog.open``) replays committed-but-unfinished transactions, rolls
back uncommitted ones, sweeps staging/orphan files, and re-registers
partitions from journal checkpoints — falling back to the identity fields
embedded in partition manifests when the journal itself is gone.  The same plan,
rendered instead of applied, is the ``scripts/fsck.py`` report.

Records are one file each (``{txn:08d}-{kind}.rec``) instead of one
appended log, because the block store models whole-file writes: a torn
append would invalidate the entire log, while a torn record file fails its
own CRC and is discarded alone.  Checkpoint records bound journal growth.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass, field

from ..errors import CatalogError, StorageError
from .blockstore import BlockStore
from .columnar import MANIFEST_SUFFIX, PartitionManifest, chunk_dir
from .schema import Column, ColumnType, Schema

#: Root of all per-table journals.
JOURNAL_ROOT = "/journal"

#: Name of the staging directory inside a table's warehouse directory.
STAGING_DIR = ".staging"

#: Suffix of one journal record file.
RECORD_SUFFIX = ".rec"

#: Record kinds a journal may contain, in protocol order.
RECORD_KINDS = ("intent", "commit", "done", "abort", "checkpoint")

#: Supported fsync modes (see :class:`Durability`).
FSYNC_MODES = ("always", "commit", "never")

_RECORD_FILE_RE = re.compile(r"^(\d{8})-([a-z]+)\.rec$")
_CHUNK_VERSION_RE = re.compile(r"\.(\d{8})\.chunk$")


@dataclass(frozen=True)
class Durability:
    """Crash-safety knobs for catalog writes.

    ``fsync``
        ``"always"`` syncs every write as it happens; ``"commit"`` (the
        default) syncs at the two protocol barriers (staged files + intent,
        then the commit record), which is the cheapest mode that keeps
        committed transactions durable; ``"never"`` issues no barriers —
        crash *consistency* still holds (recovery rolls the whole
        transaction back), but a committed transaction may be lost.
    ``compact_after``
        Rewrite a table's journal as a single checkpoint record once it
        holds more than this many record files.
    """

    fsync: str = "commit"
    compact_after: int = 64

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_MODES:
            raise CatalogError(
                f"unknown fsync mode {self.fsync!r}; expected one of {FSYNC_MODES}"
            )
        if self.compact_after < 2:
            raise CatalogError(
                f"compact_after must be >= 2, got {self.compact_after}"
            )

    @property
    def sync_every_write(self) -> bool:
        return self.fsync == "always"

    @property
    def sync_on_commit(self) -> bool:
        return self.fsync != "never"


# ----------------------------------------------------------------------
# Record codec and paths
# ----------------------------------------------------------------------


def encode_record(doc: dict) -> bytes:
    """Serialize one journal record: ``crc32(body) + " " + json body``."""
    body = json.dumps(doc, sort_keys=True).encode("utf-8")
    return f"{zlib.crc32(body) & 0xFFFFFFFF:08x} ".encode("ascii") + body


def decode_record(payload: bytes) -> dict | None:
    """Parse a record; ``None`` for torn or corrupt payloads.

    A record that fails its CRC is treated exactly like one that was never
    written — that is the contract that makes torn journal tails safe.
    """
    try:
        head, body = payload.split(b" ", 1)
        if int(head, 16) != zlib.crc32(body) & 0xFFFFFFFF:
            return None
        doc = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def journal_dir(database: str, table: str) -> str:
    return f"{JOURNAL_ROOT}/{database}/{table}"


def record_path(database: str, table: str, txn: int, kind: str) -> str:
    return f"{journal_dir(database, table)}/{txn:08d}-{kind}{RECORD_SUFFIX}"


def staging_root(database: str, table: str) -> str:
    return f"/warehouse/{database}/{table}/{STAGING_DIR}"


def staging_dir(database: str, table: str, txn: int) -> str:
    return f"{staging_root(database, table)}/{txn:08d}"


def schema_doc(schema: Schema) -> list[list[str]]:
    """A JSON-serializable ``[[name, ctype], ...]`` schema listing."""
    return [[c.name, c.ctype.value] for c in schema]


def schema_from_doc(doc) -> Schema:
    return Schema(Column(str(n), ColumnType(str(c))) for n, c in doc)


class TableJournal:
    """Appender for one table's journal."""

    def __init__(
        self, store: BlockStore, database: str, table: str, durability: Durability
    ) -> None:
        self._store = store
        self.database = database
        self.table = table
        self.durability = durability
        self.dir = journal_dir(database, table)

    def append(self, kind: str, doc: dict, txn: int, sync: bool) -> str:
        """Write one record file; fsync it when ``sync``."""
        path = record_path(self.database, self.table, txn, kind)
        payload = encode_record(
            {
                **doc,
                "txn": txn,
                "kind": kind,
                "db": self.database,
                "table": self.table,
            }
        )
        self._store.write(path, payload)
        if sync:
            self._store.fsync(path)
        return path

    def record_files(self) -> list[str]:
        return self._store.list_files(self.dir + "/")

    def compact(
        self,
        txn: int,
        partitions: dict[str, str],
        schema: Schema | None,
    ) -> None:
        """Replace the journal with one checkpoint record at ``txn``.

        The checkpoint is written and synced before any old record is
        deleted, so a crash anywhere in between leaves a recoverable
        journal (recovery ignores records at or below the checkpoint txn).
        """
        self.append(
            "checkpoint",
            {
                "partitions": dict(partitions),
                "schema": schema_doc(schema) if schema is not None else None,
            },
            txn,
            sync=self.durability.sync_on_commit,
        )
        checkpoint = record_path(self.database, self.table, txn, "checkpoint")
        for path in self.record_files():
            if path != checkpoint:
                self._store.delete(path)

    def destroy(self) -> None:
        """Delete every record (the table no longer exists)."""
        for path in self.record_files():
            self._store.delete(path)


# ----------------------------------------------------------------------
# Journal parsing
# ----------------------------------------------------------------------


@dataclass
class _TableJournalState:
    """Parsed journal of one table."""

    database: str
    table: str
    #: txn -> kind -> record doc (only intact records).
    txns: dict[int, dict[str, dict]] = field(default_factory=dict)
    #: Record files that failed CRC/shape validation (torn writes).
    torn: list[str] = field(default_factory=list)
    #: All record paths seen, intact or not.
    record_paths: list[str] = field(default_factory=list)

    @property
    def checkpoint_txn(self) -> int:
        """Highest intact checkpoint txn, or -1."""
        best = -1
        for txn, kinds in self.txns.items():
            if "checkpoint" in kinds:
                best = max(best, txn)
        return best


def load_journal(store: BlockStore) -> dict[tuple[str, str], _TableJournalState]:
    """Parse every journal record on the store, tolerating torn files."""
    states: dict[tuple[str, str], _TableJournalState] = {}
    for path in store.list_files(JOURNAL_ROOT + "/"):
        parts = path[len(JOURNAL_ROOT) + 1 :].split("/")
        if len(parts) != 3:
            continue  # not a per-table record layout; leave it alone
        database, table, fname = parts
        state = states.setdefault(
            (database, table), _TableJournalState(database, table)
        )
        state.record_paths.append(path)
        match = _RECORD_FILE_RE.match(fname)
        doc = decode_record(store.read(path)) if match else None
        if (
            match is None
            or doc is None
            or doc.get("kind") != match.group(2)
            or doc.get("txn") != int(match.group(1))
            or doc.get("kind") not in RECORD_KINDS
        ):
            state.torn.append(path)
            continue
        txn = int(match.group(1))
        state.txns.setdefault(txn, {})[doc["kind"]] = doc
    return states


# ----------------------------------------------------------------------
# Recovery planning (read-only)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TxnPlan:
    """Disposition of one journaled transaction found at recovery."""

    database: str
    table: str
    txn: int
    op: str  # "save" | "drop"
    disposition: str  # "applied" | "replay" | "rollback" | "aborted" | "lost"
    intent: dict | None


@dataclass
class FsckIssue:
    """One finding of the consistency scan."""

    kind: str
    path: str
    detail: str = ""

    def render(self) -> str:
        text = f"[{self.kind}] {self.path}"
        return f"{text} — {self.detail}" if self.detail else text


@dataclass
class RecoveryPlan:
    """Everything recovery would do, computed without mutating the store.

    ``apply_recovery`` executes it; fsck renders it.  ``deletes`` carries
    ``(path, reason)`` pairs so the report can attribute each removal.
    """

    tables: dict[tuple[str, str], dict[str, str]] = field(default_factory=dict)
    schemas_raw: dict[tuple[str, str], list] = field(default_factory=dict)
    replays: list[TxnPlan] = field(default_factory=list)
    rollbacks: list[TxnPlan] = field(default_factory=list)
    lost: list[TxnPlan] = field(default_factory=list)
    deletes: list[tuple[str, str]] = field(default_factory=list)
    torn_records: list[str] = field(default_factory=list)
    adopted: list[tuple[str, str, str, str]] = field(default_factory=list)
    issues: list[FsckIssue] = field(default_factory=list)
    #: Tables whose journal should be rewritten as a checkpoint.
    checkpoint_tables: set = field(default_factory=set)
    max_txn: int = 0

    @property
    def clean(self) -> bool:
        return not (
            self.replays
            or self.rollbacks
            or self.lost
            or self.deletes
            or self.torn_records
            or self.adopted
            or self.issues
        )


def _intent_moves(intent: dict) -> list[tuple[str, str]]:
    return [(str(s), str(d)) for s, d in intent.get("moves", [])]


def _staged_intact(store: BlockStore, intent: dict, src: str) -> bool:
    """Whether a staged file exists and matches its recorded CRC."""
    if not store.exists(src):
        return False
    crc = intent.get("crcs", {}).get(src)
    if crc is None:
        return True
    return (zlib.crc32(store.read(src)) & 0xFFFFFFFF) == int(crc)


def _move_satisfiable(store: BlockStore, intent: dict, src: str, dst: str) -> bool:
    return store.exists(dst) or _staged_intact(store, intent, src)


def _superseded(
    store: BlockStore, state: _TableJournalState, txn: int, intent: dict
) -> bool:
    """Whether every missing destination of finished save ``txn`` was
    deleted on purpose: it is in the ``cleanup`` of a later committed
    save/drop of the same partition, whose version replaced this one."""
    cleaned = {
        str(path)
        for later, kinds in state.txns.items()
        if later > txn
        and "commit" in kinds
        and kinds.get("intent", {}).get("partition") == intent.get("partition")
        for path in kinds["intent"].get("cleanup", [])
    }
    return all(
        store.exists(dst) or dst in cleaned for _src, dst in _intent_moves(intent)
    )


def _resolve_table(
    store: BlockStore, state: _TableJournalState, plan: RecoveryPlan
) -> None:
    """Fold one table's journal into the plan: final registration + txn
    dispositions."""
    key = (state.database, state.table)
    registrations: dict[str, str] = {}
    schema_raw = None
    checkpoint_txn = state.checkpoint_txn
    dirty = bool(state.torn)
    for txn in sorted(state.txns):
        plan.max_txn = max(plan.max_txn, txn)
        kinds = state.txns[txn]
        if txn < checkpoint_txn or (
            txn == checkpoint_txn and "checkpoint" not in kinds
        ):
            dirty = True  # pre-checkpoint leftovers; fold away
            continue
        if "checkpoint" in kinds:
            doc = kinds["checkpoint"]
            registrations = {
                str(p): str(path) for p, path in doc.get("partitions", {}).items()
            }
            if doc.get("schema") is not None:
                schema_raw = doc["schema"]
            continue
        intent = kinds.get("intent")
        committed = "commit" in kinds
        done = "done" in kinds
        aborted = "abort" in kinds
        if intent is None:
            # Commit/done/abort whose intent is torn or compacted away.
            # Nothing can be replayed; committed-without-intent means a
            # durability-mode weaker than the data (counted as lost unless
            # the txn also finished, in which case adoption re-registers).
            if committed and not done:
                plan.lost.append(
                    TxnPlan(*key, txn, "unknown", "lost", None)
                )
                dirty = True
            continue
        op = str(intent.get("op", "save"))
        if aborted and not committed:
            plan.rollbacks.append(TxnPlan(*key, txn, op, "aborted", intent))
            continue
        if not committed:
            plan.rollbacks.append(TxnPlan(*key, txn, op, "rollback", intent))
            dirty = True
            continue
        # Committed: decide replayability before touching registration.
        if op == "save":
            feasible = all(
                _move_satisfiable(store, intent, src, dst)
                for src, dst in _intent_moves(intent)
            )
            if not feasible:
                if done and _superseded(store, state, txn, intent):
                    continue  # a later txn registers or drops the partition
                plan.lost.append(TxnPlan(*key, txn, op, "lost", intent))
                dirty = True
                continue
            registrations[str(intent["partition"])] = str(intent["path"])
            if intent.get("schema") is not None:
                schema_raw = intent["schema"]
        elif op == "drop":
            registrations.pop(str(intent["partition"]), None)
        if not done:
            plan.replays.append(TxnPlan(*key, txn, op, "replay", intent))
            dirty = True
    for path in state.torn:
        plan.torn_records.append(path)
    if registrations:
        plan.tables[key] = registrations
        if schema_raw is not None:
            plan.schemas_raw[key] = schema_raw
    if dirty:
        plan.checkpoint_tables.add(key)


def _manifest_or_none(
    store: BlockStore, path: str, memo: dict
) -> PartitionManifest | None:
    if path in memo:
        return memo[path]
    manifest = None
    if store.exists(path):
        try:
            manifest = PartitionManifest.from_bytes(store.read(path))
        except (StorageError, ValueError, KeyError, TypeError):
            manifest = None
    memo[path] = manifest
    return manifest


def partition_residue(
    store: BlockStore, path: str, memo: dict | None = None
) -> list[str]:
    """Every store file attributable to the partition whose manifest is
    registered at ``path``: the manifest, the chunks it lists, and any
    other chunk file (a torn overwrite's leftovers) in its chunk directory."""
    if memo is None:
        memo = {}
    files = []
    manifest = _manifest_or_none(store, path, memo)
    if manifest is not None:
        files.extend(c.path for c in manifest.chunks if store.exists(c.path))
    files.extend(store.list_files(chunk_dir(path)))
    if store.exists(path):
        files.append(path)
    return sorted(set(files))


def _validate_registrations(
    store: BlockStore, plan: RecoveryPlan, memo: dict
) -> None:
    """Drop registrations whose backing files are gone or torn.

    Partitions still awaiting replay validate through the staged copies
    (replay feasibility was already checked), so only settled
    registrations are examined against final paths.
    """
    pending = {
        (t.database, t.table, str(t.intent["partition"]))
        for t in plan.replays
        if t.intent is not None and t.op == "save"
    }
    for key, regs in list(plan.tables.items()):
        for partition, path in list(regs.items()):
            if not path.endswith(MANIFEST_SUFFIX):
                # Foreign input (e.g. a retired ``.npz`` whole-table file):
                # refuse to serve it, and never delete what we cannot read.
                regs.pop(partition)
                plan.checkpoint_tables.add(key)
                plan.issues.append(
                    FsckIssue(
                        "unsupported-format",
                        path,
                        f"{key[0]}.{key[1]}/{partition}: not a partition "
                        f"manifest; deregistered, file left in place",
                    )
                )
                continue
            if (key[0], key[1], partition) in pending:
                continue
            manifest = _manifest_or_none(store, path, memo)
            if manifest is not None and all(
                store.exists(c.path) for c in manifest.chunks
            ):
                continue
            regs.pop(partition)
            plan.checkpoint_tables.add(key)
            for residue in partition_residue(store, path, memo):
                plan.deletes.append((residue, "invalid-partition"))
            plan.issues.append(
                FsckIssue(
                    "invalid-partition",
                    path,
                    f"{key[0]}.{key[1]}/{partition}: backing files missing "
                    f"or torn; partition deregistered",
                )
            )
        if not regs:
            plan.tables.pop(key)
            plan.schemas_raw.pop(key, None)


def _plan_sweeps(store: BlockStore, plan: RecoveryPlan, memo: dict) -> None:
    """Adoption of journal-less manifests, then orphan/staging sweeps."""
    registered = {
        path for regs in plan.tables.values() for path in regs.values()
    }
    replay_sources = set()
    replay_cleanup = set()
    for txn_plan in plan.replays:
        if txn_plan.intent is not None:
            for src, _dst in _intent_moves(txn_plan.intent):
                replay_sources.add(src)
            replay_cleanup.update(
                str(p) for p in txn_plan.intent.get("cleanup", [])
            )
    rollback_targets = set()
    for txn_plan in plan.rollbacks:
        if txn_plan.intent is not None:
            for src, _dst in _intent_moves(txn_plan.intent):
                rollback_targets.add(src)

    preserved_manifests = set()
    for path in store.list_files("/warehouse/"):
        if not path.endswith(MANIFEST_SUFFIX) or path in registered:
            continue
        if STAGING_DIR in path.split("/"):
            continue
        if path in replay_cleanup:
            continue  # a pending replay deletes this; never re-adopt it
        manifest = _manifest_or_none(store, path, memo)
        if manifest is None:
            plan.deletes.append((path, "torn-manifest"))
            for chunk_path in store.list_files(chunk_dir(path)):
                plan.deletes.append((chunk_path, "torn-manifest"))
            continue
        identity = manifest.identity
        complete = all(store.exists(c.path) for c in manifest.chunks)
        if identity is None:
            # Pre-journal manifest: readable but unattributable.  Refuse
            # to delete data we cannot attribute; report it instead.
            preserved_manifests.add(path)
            plan.issues.append(
                FsckIssue(
                    "unadoptable-manifest",
                    path,
                    "no identity fields; cannot re-register or attribute",
                )
            )
            continue
        database, table, partition = identity
        key = (database, table)
        if partition in plan.tables.get(key, {}):
            # Journal truth already registers this partition elsewhere:
            # the manifest is residue from a replaced version.
            plan.deletes.append((path, "format-residue"))
            for chunk_path in store.list_files(chunk_dir(path)):
                plan.deletes.append((chunk_path, "format-residue"))
            continue
        if not complete:
            plan.deletes.append((path, "torn-manifest"))
            for chunk_path in store.list_files(chunk_dir(path)):
                plan.deletes.append((chunk_path, "torn-manifest"))
            continue
        expected_schema = plan.schemas_raw.get(key)
        manifest_schema = schema_doc(manifest.schema)
        if expected_schema is not None and expected_schema != manifest_schema:
            preserved_manifests.add(path)
            plan.issues.append(
                FsckIssue(
                    "unadoptable-manifest",
                    path,
                    f"schema differs from {database}.{table}; not adopted",
                )
            )
            continue
        plan.tables.setdefault(key, {})[partition] = path
        plan.schemas_raw.setdefault(key, manifest_schema)
        registered.add(path)
        plan.adopted.append((database, table, partition, path))

    expected = set(registered)
    for regs in plan.tables.values():
        for path in regs.values():
            manifest = _manifest_or_none(store, path, memo)
            if manifest is not None:
                expected.update(c.path for c in manifest.chunks)
    for path in preserved_manifests:
        expected.add(path)
        manifest = _manifest_or_none(store, path, memo)
        if manifest is not None:
            expected.update(c.path for c in manifest.chunks)
    # Chunks that a pending replay will publish exist as staged sources
    # now, but their destinations become expected after replay.
    for txn_plan in plan.replays:
        if txn_plan.intent is not None:
            for _src, dst in _intent_moves(txn_plan.intent):
                expected.add(dst)
                manifest = _manifest_or_none(store, dst, memo)
                if dst.endswith(MANIFEST_SUFFIX) and manifest is not None:
                    expected.update(c.path for c in manifest.chunks)

    planned_deletes = {path for path, _reason in plan.deletes}
    for path in store.list_files("/warehouse/"):
        if path in expected or path in planned_deletes:
            continue
        if path in replay_cleanup:
            continue  # consumed by the replay's cleanup deletes
        if STAGING_DIR in path.split("/"):
            if path in replay_sources:
                continue  # consumed by the replay's renames
            reason = (
                "rollback-staging" if path in rollback_targets else "stale-staging"
            )
            plan.deletes.append((path, reason))
            continue
        if path.endswith(".npz"):
            # A whole-table file in the retired v1 format, which nothing
            # here reads or writes.  Like identity-less manifests: never
            # delete data we cannot attribute — report it and leave it in
            # place.
            plan.issues.append(
                FsckIssue(
                    "unattributable-table",
                    path,
                    "no journal record or manifest identity; preserved",
                )
            )
            continue
        plan.deletes.append((path, "orphan"))


def txn_floor(store: BlockStore) -> int:
    """The highest transaction id visible on the store.

    Scans both journal record names and version-stamped chunk names, so a
    catalog opened over a store whose journal was compacted (or wiped)
    still never reuses a txn id that a live chunk file carries.
    """
    floor = 0
    for path in store.list_files(JOURNAL_ROOT + "/"):
        match = _RECORD_FILE_RE.match(path.rsplit("/", 1)[-1])
        if match:
            floor = max(floor, int(match.group(1)))
    for path in store.list_files("/warehouse/"):
        match = _CHUNK_VERSION_RE.search(path)
        if match:
            floor = max(floor, int(match.group(1)))
    return floor


def plan_recovery(store: BlockStore) -> RecoveryPlan:
    """Compute, read-only, everything recovery would change."""
    plan = RecoveryPlan()
    memo: dict[str, PartitionManifest | None] = {}
    for state in load_journal(store).values():
        _resolve_table(store, state, plan)
    _validate_registrations(store, plan, memo)
    _plan_sweeps(store, plan, memo)
    plan.max_txn = max(plan.max_txn, txn_floor(store))
    return plan


# ----------------------------------------------------------------------
# Recovery application (mutating)
# ----------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What a recovery pass actually did."""

    replayed: int = 0
    rolled_back: int = 0
    orphans_removed: int = 0
    adopted: int = 0
    lost_commits: int = 0
    torn_records: int = 0
    #: Registrations refused as ``unsupported-format`` (file left in place).
    rejected: int = 0
    details: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the store needed no repair at all."""
        return not (
            self.replayed
            or self.rolled_back
            or self.orphans_removed
            or self.adopted
            or self.lost_commits
            or self.torn_records
            or self.rejected
        )

    def counters(self) -> dict[str, int]:
        """Counter name → value, for metrics/telemetry export."""
        return {
            "recovery.replayed": self.replayed,
            "recovery.rolled_back": self.rolled_back,
            "recovery.orphans_removed": self.orphans_removed,
            "recovery.adopted": self.adopted,
            "recovery.lost_commits": self.lost_commits,
            "recovery.torn_records": self.torn_records,
            "recovery.rejected": self.rejected,
        }


def apply_recovery(
    store: BlockStore, plan: RecoveryPlan, durability: Durability | None = None
) -> RecoveryReport:
    """Execute a :func:`plan_recovery` plan; idempotent on re-run."""
    durability = durability if durability is not None else Durability()
    report = RecoveryReport()
    for txn_plan in plan.replays:
        intent = txn_plan.intent
        journal = TableJournal(
            store, txn_plan.database, txn_plan.table, durability
        )
        for src, dst in _intent_moves(intent):
            if store.exists(src):
                store.rename(src, dst)
            if durability.sync_on_commit:
                store.fsync(dst)
        for path in intent.get("cleanup", []):
            if store.exists(path):
                store.delete(path)
        journal.append("done", {}, txn_plan.txn, sync=False)
        report.replayed += 1
        report.details.append(
            f"replayed txn {txn_plan.txn} ({txn_plan.op}) of "
            f"{txn_plan.database}.{txn_plan.table}"
        )
    for txn_plan in plan.rollbacks:
        intent = txn_plan.intent
        removed = 0
        for src, _dst in _intent_moves(intent):
            if store.exists(src):
                store.delete(src)
                removed += 1
        if txn_plan.disposition != "aborted":
            TableJournal(
                store, txn_plan.database, txn_plan.table, durability
            ).append("abort", {}, txn_plan.txn, sync=False)
            report.rolled_back += 1
            report.details.append(
                f"rolled back txn {txn_plan.txn} ({txn_plan.op}) of "
                f"{txn_plan.database}.{txn_plan.table}: "
                f"{removed} staged file(s) removed"
            )
    for txn_plan in plan.lost:
        report.lost_commits += 1
        report.details.append(
            f"lost committed txn {txn_plan.txn} of "
            f"{txn_plan.database}.{txn_plan.table} (staged data not durable)"
        )
        if txn_plan.intent is not None:
            published = str(txn_plan.intent.get("path"))
            for src, dst in _intent_moves(txn_plan.intent):
                for path in (src, dst):
                    if path == published:
                        continue  # may hold the previous committed version
                    if store.exists(path):
                        store.delete(path)
    for path, reason in plan.deletes:
        if store.exists(path):
            store.delete(path)
            if reason == "invalid-partition":
                continue  # already counted as a lost commit by validation
            report.orphans_removed += 1
            report.details.append(f"removed {reason}: {path}")
    for path in plan.torn_records:
        if store.exists(path):
            store.delete(path)
        report.torn_records += 1
        report.details.append(f"discarded torn journal record: {path}")
    for database, table, partition, path in plan.adopted:
        report.adopted += 1
        report.details.append(
            f"adopted {database}.{table}/{partition} from manifest {path}"
        )
    for issue in plan.issues:
        if issue.kind == "unsupported-format":
            report.rejected += 1
            report.details.append(f"rejected {issue.render()}")
    # Convergence: rewrite touched journals as single checkpoints so the
    # next open finds a clean store instead of re-resolving the same txns.
    next_txn = plan.max_txn
    for key in sorted(plan.checkpoint_tables):
        journal = TableJournal(store, key[0], key[1], durability)
        regs = plan.tables.get(key)
        if not regs:
            journal.destroy()
            continue
        schema_raw = plan.schemas_raw.get(key)
        next_txn += 1
        journal.compact(
            next_txn,
            regs,
            schema_from_doc(schema_raw) if schema_raw else None,
        )
    plan.max_txn = next_txn
    return report


@dataclass
class RecoveredCatalog:
    """Registration state handed to ``Catalog.open`` after recovery."""

    tables: dict[tuple[str, str], dict[str, str]]
    schemas: dict[tuple[str, str], Schema]
    report: RecoveryReport
    max_txn: int


def recover_store(
    store: BlockStore, durability: Durability | None = None
) -> RecoveredCatalog:
    """Plan + apply recovery, returning rebuilt catalog registrations."""
    plan = plan_recovery(store)
    report = apply_recovery(store, plan, durability)
    schemas: dict[tuple[str, str], Schema] = {}
    memo: dict[str, PartitionManifest | None] = {}
    for key, regs in plan.tables.items():
        raw = plan.schemas_raw.get(key)
        if raw:
            schemas[key] = schema_from_doc(raw)
            continue
        # No schema on record: infer it from a partition manifest.
        for path in sorted(regs.values()):
            manifest = _manifest_or_none(store, path, memo)
            if manifest is not None:
                schemas[key] = manifest.schema
                break
    return RecoveredCatalog(
        tables={k: dict(v) for k, v in plan.tables.items()},
        schemas=schemas,
        report=report,
        max_txn=plan.max_txn,
    )


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------


@dataclass
class FsckReport:
    """Consistency findings for one store, with optional repair results."""

    issues: list[FsckIssue]
    tables: dict[str, list[str]]
    repaired: RecoveryReport | None = None

    @property
    def clean(self) -> bool:
        return not self.issues

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for issue in self.issues:
            out[issue.kind] = out.get(issue.kind, 0) + 1
        return dict(sorted(out.items()))

    def render(self) -> str:
        lines = [
            f"fsck: {len(self.tables)} table(s), "
            f"{sum(len(p) for p in self.tables.values())} partition(s)"
        ]
        for qualified, partitions in sorted(self.tables.items()):
            lines.append(f"  {qualified}: {len(partitions)} partition(s)")
        if self.clean:
            lines.append("clean: no orphans, torn state, or pending transactions")
        else:
            lines.append(f"{len(self.issues)} issue(s):")
            for kind, count in self.counts().items():
                lines.append(f"  {kind}: {count}")
            for issue in self.issues:
                lines.append(f"  - {issue.render()}")
        if self.repaired is not None:
            r = self.repaired
            lines.append(
                "repaired: "
                f"replayed={r.replayed} rolled_back={r.rolled_back} "
                f"orphans_removed={r.orphans_removed} adopted={r.adopted} "
                f"lost_commits={r.lost_commits} torn_records={r.torn_records}"
            )
        return "\n".join(lines)


def fsck_store(
    store: BlockStore,
    repair: bool = False,
    durability: Durability | None = None,
) -> FsckReport:
    """Scan a store for crash damage; optionally repair it.

    Without ``repair`` the store is not mutated.  With it, the recovery
    plan is applied and the report carries what was done; the issue list
    still describes the *pre*-repair state.
    """
    plan = plan_recovery(store)
    issues: list[FsckIssue] = []
    for path in plan.torn_records:
        issues.append(FsckIssue("torn-record", path))
    for txn_plan in plan.replays:
        issues.append(
            FsckIssue(
                "pending-replay",
                record_path(
                    txn_plan.database, txn_plan.table, txn_plan.txn, "intent"
                ),
                f"committed txn {txn_plan.txn} ({txn_plan.op}) not yet applied",
            )
        )
    for txn_plan in plan.rollbacks:
        if txn_plan.disposition == "rollback":
            issues.append(
                FsckIssue(
                    "pending-rollback",
                    record_path(
                        txn_plan.database, txn_plan.table, txn_plan.txn, "intent"
                    ),
                    f"uncommitted txn {txn_plan.txn} ({txn_plan.op})",
                )
            )
    for txn_plan in plan.lost:
        issues.append(
            FsckIssue(
                "lost-commit",
                record_path(
                    txn_plan.database, txn_plan.table, txn_plan.txn, "commit"
                ),
                "committed transaction whose staged data did not survive",
            )
        )
    for path, reason in plan.deletes:
        issues.append(FsckIssue(reason, path))
    for database, table, partition, path in plan.adopted:
        issues.append(
            FsckIssue(
                "adoptable-manifest",
                path,
                f"re-registers {database}.{table}/{partition}",
            )
        )
    issues.extend(plan.issues)
    tables = {
        f"{key[0]}.{key[1]}": sorted(regs)
        for key, regs in sorted(plan.tables.items())
    }
    repaired = None
    if repair:
        repaired = apply_recovery(store, plan, durability)
    return FsckReport(issues=issues, tables=tables, repaired=repaired)
