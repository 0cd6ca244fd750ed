"""Write-ahead journal: commit protocol, recovery, adoption, and fsck.

The systematic every-crash-point sweep lives in ``test_crash_matrix.py``;
this module covers the journal's unit surface — record codec, durability
modes, the record files a transaction leaves behind, targeted
crash/recover scenarios, manifest adoption, cache invalidation on
recovery, and the fsck report — plus the telemetry/watchtower wiring of
``recovery.*`` counters.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.watchtower import Watchtower, recovery_rules
from repro.dataplat.blockstore import BlockStore
from repro.dataplat.catalog import Catalog
from repro.dataplat.journal import (
    Durability,
    RecoveryReport,
    decode_record,
    encode_record,
    fsck_store,
    journal_dir,
    plan_recovery,
    staging_root,
    txn_floor,
)
from repro.dataplat.resilience import CrashPoint, FaultInjector, SimulatedCrash
from repro.dataplat.table import Table
from repro.dataplat.telemetry import TelemetryWarehouse
from repro.errors import CatalogError


def make_table(n: int = 24, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        imsi=np.arange(n, dtype=np.int64),
        dur=rng.integers(0, 100, size=n),
    )


def crash_world(**catalog_kwargs):
    """A catalog whose store carries an (unarmed) crash point."""
    crash = CrashPoint()
    store = BlockStore(fault_injector=FaultInjector(crash_point=crash))
    return Catalog(store=store, **catalog_kwargs), crash


def crash_during(build, op, label: str, occurrence: int = 1) -> BlockStore:
    """Run ``op`` crashed at the ``occurrence``-th hit of ``label``.

    ``build()`` constructs a fresh ``(catalog, crash)`` world; the first
    world enumerates the operation's crash points, the second re-runs it
    armed.  Returns the crashed world's store, frozen mid-operation.
    """
    catalog, crash = build()
    crash.reset()
    op(catalog)
    hits = [i for i, (l, _) in enumerate(crash.visited) if l == label]
    assert len(hits) >= occurrence, f"{label!r} hit {len(hits)} time(s)"
    k = hits[occurrence - 1] + 1

    catalog, crash = build()
    crash.reset()
    crash.raise_at(k)
    with pytest.raises(SimulatedCrash):
        op(catalog)
    return catalog.store


class TestDurability:
    def test_defaults_and_flags(self):
        d = Durability()
        assert d.fsync == "commit"
        assert d.sync_on_commit and not d.sync_every_write
        always = Durability(fsync="always")
        assert always.sync_every_write and always.sync_on_commit

    def test_validation(self):
        with pytest.raises(CatalogError):
            Durability(fsync="sometimes")
        with pytest.raises(CatalogError):
            Durability(compact_after=1)


class TestRecordCodec:
    def test_round_trip(self):
        doc = {"op": "save", "txn": 7, "moves": [["a", "b"]]}
        assert decode_record(encode_record(doc)) == doc

    def test_torn_tail_reads_as_never_written(self):
        payload = encode_record({"op": "save", "txn": 7})
        for cut in (0, 5, len(payload) // 2, len(payload) - 1):
            assert decode_record(payload[:cut]) is None

    def test_corrupt_body_fails_crc(self):
        payload = bytearray(encode_record({"op": "drop"}))
        payload[-1] ^= 0xFF
        assert decode_record(bytes(payload)) is None

    def test_non_dict_json_rejected(self):
        body = json.dumps([1, 2]).encode()
        import zlib

        payload = f"{zlib.crc32(body) & 0xFFFFFFFF:08x} ".encode() + body
        assert decode_record(payload) is None


class TestJournaledWrites:
    def test_save_leaves_intent_commit_done(self):
        catalog, _ = crash_world()
        catalog.save(make_table(), "t", partition="month=1")
        records = catalog.store.list_files(journal_dir("default", "t") + "/")
        kinds = sorted(p.rsplit("-", 1)[-1] for p in records)
        assert kinds == ["commit.rec", "done.rec", "intent.rec"]

    def test_no_staging_residue_after_save(self):
        catalog, _ = crash_world()
        catalog.save(make_table(), "t", partition="month=1")
        assert catalog.store.list_files(staging_root("default", "t")) == []

    def test_overwrite_removes_old_version_chunks(self):
        catalog, _ = crash_world()
        catalog.save(make_table(seed=1), "t")
        before = set(catalog.partition_files("t"))
        catalog.save(make_table(seed=2), "t")
        after = set(catalog.partition_files("t"))
        # Version-stamped chunk names: the new version shares only the
        # manifest path with the old one.
        assert before != after
        for path in before - after:
            assert not catalog.store.exists(path)

    def test_compaction_bounds_journal_growth(self):
        catalog, _ = crash_world(durability=Durability(compact_after=4))
        for month in range(6):
            catalog.save(make_table(seed=month), "t", partition=f"m={month}")
        records = catalog.store.list_files(journal_dir("default", "t") + "/")
        assert len(records) <= 4
        assert any(p.endswith("-checkpoint.rec") for p in records)
        reopened = Catalog.open(catalog.store)
        assert reopened.partitions("t") == [f"m={m}" for m in range(6)]

    def test_drop_last_partition_removes_journal_too(self):
        catalog, _ = crash_world()
        catalog.save(make_table(), "t", partition="m=1")
        catalog.save(make_table(seed=1), "t", partition="m=2")
        catalog.drop("t")
        assert catalog.store.total_bytes == 0
        assert catalog.store.list_files("/") == []


class TestRecovery:
    def test_clean_reopen_round_trips_everything(self):
        catalog, _ = crash_world()
        catalog.create_database("ops")
        catalog.save(make_table(seed=1), "calls", partition="m=1")
        catalog.save(make_table(seed=2), "calls", partition="m=2")
        catalog.save(make_table(seed=3), "legacy")
        catalog.save(make_table(seed=4), "audit", database="ops")
        reopened = Catalog.open(catalog.store)
        assert reopened.last_recovery is not None
        assert reopened.last_recovery.clean
        assert reopened.tables() == ["calls", "legacy"]
        assert reopened.tables("ops") == ["audit"]
        assert reopened.load("calls", partition="m=2") == make_table(seed=2)
        assert reopened.load("legacy") == make_table(seed=3)
        assert reopened.load("audit", database="ops") == make_table(seed=4)

    def test_superseded_versions_are_not_lost_commits(self):
        # An overwrite / drop deletes the replaced version's
        # files on purpose (the later txn's ``cleanup``); a restart must not
        # call the earlier finished saves lost.
        catalog, _ = crash_world()
        catalog.save(make_table(seed=1), "t", partition="m=1")
        catalog.save(make_table(seed=2), "t", partition="m=1")
        catalog.save(make_table(seed=3), "t", partition="m=2")
        catalog.drop_partition("t", "m=2")
        catalog.save(make_table(seed=4), "t", partition="m=2")
        catalog.save(make_table(seed=5), "mixed")
        catalog.save(make_table(seed=6), "mixed")
        store = catalog.store
        records = store.list_files("/journal/")
        assert fsck_store(store).clean
        reopened = Catalog.open(store)
        report = reopened.last_recovery
        assert report.lost_commits == 0 and report.clean, report.details
        assert store.list_files("/journal/") == records  # no checkpoint rewrite
        assert reopened.load("t", partition="m=1") == make_table(seed=2)
        assert reopened.load("t", partition="m=2") == make_table(seed=4)
        assert reopened.load("mixed") == make_table(seed=6)

    def test_lost_commit_still_counts(self):
        def build():
            catalog, crash = crash_world()
            catalog.save(make_table(seed=1), "t", partition="m=1")
            return catalog, crash

        # Commit record durable, staged data gone, not done.
        store = crash_during(
            build,
            lambda c: c.save(make_table(seed=9), "t", partition="m=2"),
            "catalog.save.commit",
        )
        store.delete(store.list_files(staging_root("default", "t"))[0])
        reopened = Catalog.open(store)
        assert reopened.last_recovery.lost_commits == 1
        assert not reopened.last_recovery.clean
        assert reopened.partitions("t") == ["m=1"]
        assert reopened.load("t", partition="m=1") == make_table(seed=1)
        assert Catalog.open(store).last_recovery.clean

    def test_vanished_files_are_lost_unless_a_later_txn_cleaned_them(self):
        # A finished save whose chunk disappeared is excused only by a later
        # committed txn of the *same* partition that lists it as cleanup.
        catalog, _ = crash_world()
        catalog.save(make_table(seed=1), "t", partition="m=1")
        catalog.save(make_table(seed=2), "t", partition="m=2")
        catalog.save(make_table(seed=3), "t", partition="m=2")
        store = catalog.store
        store.delete(store.list_files("/warehouse/default/t/m_1/")[0])
        reopened = Catalog.open(store)
        assert reopened.last_recovery.lost_commits == 1
        assert reopened.partitions("t") == ["m=2"]
        assert reopened.load("t", partition="m=2") == make_table(seed=3)

    def test_uncommitted_save_rolls_back(self):
        def build():
            catalog, crash = crash_world()
            catalog.save(make_table(seed=1), "t", partition="m=1")
            return catalog, crash

        store = crash_during(
            build,
            lambda c: c.save(make_table(seed=9), "t", partition="m=2"),
            "catalog.save.barrier",
        )
        reopened = Catalog.open(store)
        report = reopened.last_recovery
        assert report.rolled_back == 1 and report.replayed == 0
        assert reopened.partitions("t") == ["m=1"]
        assert reopened.load("t", partition="m=1") == make_table(seed=1)
        assert store.list_files(staging_root("default", "t")) == []
        # Convergence: the rolled-back txn is settled, second open is clean.
        assert Catalog.open(store).last_recovery.clean

    def test_committed_save_replays_forward(self):
        def build():
            catalog, crash = crash_world()
            catalog.save(make_table(seed=1), "t")
            return catalog, crash

        store = crash_during(
            build,
            lambda c: c.save(make_table(seed=9), "t"),
            "catalog.save.commit",
        )
        reopened = Catalog.open(store)
        report = reopened.last_recovery
        assert report.replayed == 1 and report.rolled_back == 0
        assert reopened.load("t") == make_table(seed=9)
        assert store.list_files(staging_root("default", "t")) == []
        assert Catalog.open(store).last_recovery.clean

    def test_interrupted_drop_completes_on_recovery(self):
        def build():
            catalog, crash = crash_world()
            catalog.save(make_table(seed=1), "t", partition="m=1")
            catalog.save(make_table(seed=2), "t", partition="m=2")
            return catalog, crash

        store = crash_during(
            build,
            lambda c: c.drop_partition("t", "m=1"),
            "catalog.drop.commit",
        )
        reopened = Catalog.open(store)
        assert reopened.last_recovery.replayed == 1
        assert reopened.partitions("t") == ["m=2"]
        assert reopened.load("t", partition="m=2") == make_table(seed=2)

    def test_recovery_invalidates_stale_cache_entries(self):
        # Satellite: a recovery that deletes a partition's replaced files
        # must evict them from every attached TableCache, including one
        # belonging to the catalog instance that crashed.
        catalog, crash = crash_world()
        catalog.save(make_table(seed=1), "t")
        catalog.clear_cache()
        catalog.load("t")
        old_chunks = [
            p for p in catalog.partition_files("t") if ".chunk" in p
        ]
        assert any(p in catalog.table_cache for p in old_chunks)
        # Enumerate the overwrite on a scratch partition to find the
        # commit hit offset, then crash the real overwrite there.
        crash.reset()
        catalog.save(make_table(seed=5), "probe", partition="p=0")
        k = 1 + [l for l, _ in crash.visited].index("catalog.save.commit")
        crash.reset()
        crash.raise_at(k)
        with pytest.raises(SimulatedCrash):
            catalog.save(make_table(seed=9), "t")
        # The crashed txn committed; recovery replays it, deleting the old
        # chunks — which must drop out of the crashed catalog's cache too.
        reopened = Catalog.open(catalog.store)
        assert reopened.last_recovery.replayed == 1
        assert not any(p in catalog.table_cache for p in old_chunks)
        assert reopened.load("t") == make_table(seed=9)

    def test_adoption_re_registers_from_manifest_identity(self):
        catalog, _ = crash_world()
        catalog.save(make_table(seed=1), "t", partition="m=1")
        catalog.save(make_table(seed=2), "t", partition="m=2")
        store = catalog.store
        for path in store.list_files("/journal/"):
            store.delete(path)
        reopened = Catalog.open(store)
        assert reopened.last_recovery.adopted == 2
        assert reopened.partitions("t") == ["m=1", "m=2"]
        assert reopened.load("t", partition="m=1") == make_table(seed=1)

    def test_identityless_manifest_preserved_not_adopted(self):
        catalog, _ = crash_world()
        catalog.save(make_table(), "t")
        store = catalog.store
        [manifest_path] = [
            p for p in store.list_files("/warehouse/") if p.endswith(".v2m")
        ]
        doc = json.loads(store.read(manifest_path).decode())
        doc.pop("identity")
        store.delete(manifest_path)
        store.write(manifest_path, json.dumps(doc).encode())
        for path in store.list_files("/journal/"):
            store.delete(path)
        before = store.list_files("/warehouse/")
        reopened = Catalog.open(store)
        assert reopened.tables() == []
        assert store.list_files("/warehouse/") == before  # nothing deleted
        report = fsck_store(store)
        assert any(i.kind == "unadoptable-manifest" for i in report.issues)

    def test_unjournaled_v1_table_is_preserved_and_reported(self):
        # A whole-table ``.npz`` file (the retired v1 format) that no
        # journal mentions: foreign input, never read and never deleted.
        store = BlockStore()
        path = "/warehouse/default/t/__all__.npz"
        payload = make_table().to_bytes()
        store.write(path, payload)
        reopened = Catalog.open(store)
        assert reopened.tables() == []
        assert store.read(path) == payload
        report = fsck_store(store)
        assert any(
            i.kind == "unattributable-table" and i.path == path
            for i in report.issues
        )

    def test_journaled_retired_format_partition_is_refused_loudly(self):
        # A checkpoint that registers an ``.npz`` path (written by hand:
        # nothing here produces one) must not be served, and the file must
        # survive; the table's real partitions stay loadable.
        catalog, _ = crash_world()
        catalog.save(make_table(seed=1), "t", partition="m=1")
        store = catalog.store
        legacy = "/warehouse/default/t/m_0.npz"
        payload = make_table(seed=2).to_bytes()
        store.write(legacy, payload)
        txn = txn_floor(store) + 1
        registered = {"m=0": legacy, "m=1": "/warehouse/default/t/m_1.v2m"}
        store.write(
            f"{journal_dir('default', 't')}/{txn:08d}-checkpoint.rec",
            encode_record(
                {
                    "kind": "checkpoint",
                    "txn": txn,
                    "db": "default",
                    "table": "t",
                    "partitions": registered,
                    "schema": [["imsi", "int"], ["dur", "int"]],
                }
            ),
        )
        report = fsck_store(store)
        assert [i.path for i in report.issues if i.kind == "unsupported-format"] == [
            legacy
        ]
        reopened = Catalog.open(store)
        recovery = reopened.last_recovery
        assert not recovery.clean and recovery.rejected == 1
        assert any("unsupported-format" in line for line in recovery.details)
        assert reopened.partitions("t") == ["m=1"]
        assert reopened.load("t") == make_table(seed=1)
        assert store.read(legacy) == payload
        # The refusal is recorded once: the rewritten checkpoint no longer
        # registers the file, which stays reported as unattributable.
        again = Catalog.open(store)
        assert again.last_recovery.clean and again.partitions("t") == ["m=1"]
        assert store.read(legacy) == payload
        assert [i.kind for i in fsck_store(store).issues] == [
            "unattributable-table"
        ]

    def test_txn_floor_prevents_id_reuse(self):
        catalog, _ = crash_world()
        for seed in range(3):
            catalog.save(make_table(seed=seed), "t")
        floor = txn_floor(catalog.store)
        assert floor >= 3
        fresh = Catalog.open(catalog.store)
        fresh.save(make_table(seed=9), "t")
        assert txn_floor(fresh.store) > floor


class TestFsck:
    def _crashed_store(self) -> BlockStore:
        def build():
            catalog, crash = crash_world()
            catalog.save(make_table(seed=1), "t")
            return catalog, crash

        return crash_during(
            build,
            lambda c: c.save(make_table(seed=9), "t"),
            "catalog.save.barrier",
        )

    def test_report_mode_does_not_mutate(self):
        store = self._crashed_store()
        before = store.to_snapshot()
        report = fsck_store(store, repair=False)
        assert not report.clean
        assert report.repaired is None
        assert store.to_snapshot() == before
        assert "pending-rollback" in report.counts()

    def test_repair_converges_to_clean(self):
        store = self._crashed_store()
        report = fsck_store(store, repair=True)
        assert report.repaired is not None
        assert report.repaired.rolled_back == 1
        after = fsck_store(store)
        assert after.clean
        assert "clean" in after.render()
        assert Catalog.open(store).last_recovery.clean

    def test_render_lists_tables_and_issues(self):
        store = self._crashed_store()
        text = fsck_store(store).render()
        assert "default.t: 1 partition(s)" in text
        assert "pending-rollback" in text

    def test_plan_is_empty_on_clean_store(self):
        catalog, _ = crash_world()
        catalog.save(make_table(), "t")
        assert plan_recovery(catalog.store).clean
        assert fsck_store(catalog.store).clean


class TestRecoveryTelemetry:
    def test_recovery_span_and_counters(self, capture_spans):
        def build():
            catalog, crash = crash_world()
            catalog.save(make_table(seed=1), "t")
            return catalog, crash

        store = crash_during(
            build,
            lambda c: c.save(make_table(seed=9), "t"),
            "catalog.save.commit",
        )
        Catalog.open(store)
        sp = capture_spans.assert_span("catalog.recover")
        assert sp.counters.get("replayed") == 1
        assert capture_spans.counter("recovery.replayed") >= 1

    def test_record_recovery_sinks_counters(self):
        wh = TelemetryWarehouse(git_sha="sha")
        wh.record_recovery("r1", 3, RecoveryReport(replayed=2, orphans_removed=1))
        table = wh.query(
            "SELECT name, value FROM __telemetry.metrics "
            "WHERE run_id = 'r1' AND kind = 'counter'"
        )
        rows = dict(zip(table["name"], table["value"]))
        assert rows["recovery.runs"] == 1.0
        assert rows["recovery.replayed"] == 2.0
        assert rows["recovery.orphans_removed"] == 1.0
        assert "recovery.rolled_back" not in rows  # zero counters elided

    def test_watchtower_pages_on_unexpected_recovery(self):
        wh = TelemetryWarehouse(git_sha="sha")
        tower = Watchtower(wh, recovery_rules())
        wh.record_recovery("r1", 1, RecoveryReport())  # clean open
        assert tower.evaluate("r1", 1) == []
        wh.record_recovery("r1", 2, RecoveryReport(rolled_back=1))
        fired = tower.evaluate("r1", 2)
        assert [a.rule for a in fired] == ["unexpected-crash-recovery"]
        assert fired[0].severity == "page"

    def test_watchtower_warns_on_orphan_sweep(self):
        wh = TelemetryWarehouse(git_sha="sha")
        tower = Watchtower(wh, recovery_rules())
        wh.record_recovery("r1", 4, RecoveryReport(orphans_removed=3))
        fired = tower.evaluate("r1", 4)
        assert [a.rule for a in fired] == ["recovery-orphans-removed"]
        assert fired[0].severity == "warn"
