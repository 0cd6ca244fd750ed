"""The chaos suite: fault injection, retry, self-healing, degradation.

Unit tests for the resilience runtime plus the end-to-end chaos run the
acceptance criteria describe: a seeded fault injector kills a datanode,
corrupts a replica and takes a feature-family source down mid-run, and the
pipeline still ships a ranked churn list, with every absorbed fault on the
health report — while the zero-fault resilient run stays bit-identical to
the plain in-memory path.
"""

import numpy as np
import pytest

from repro.core.monitoring import ModelMonitor
from repro.core.pipeline import ChurnPipeline
from repro.core.window import WindowSpec
from repro.dataplat.blockstore import BlockStore
from repro.dataplat.catalog import Catalog
from repro.dataplat.etl import ETLJob, QUARANTINE_SUFFIX
from repro.dataplat.resilience import (
    CatalogTableSource,
    FaultInjector,
    FaultPolicy,
    PipelineHealthReport,
    RetryPolicy,
    SimClock,
)
from repro.dataplat.schema import Schema
from repro.errors import (
    DataPlatformError,
    ETLError,
    FeatureError,
    StorageError,
    TransientError,
)


class TestSimClock:
    def test_sleep_advances(self):
        clock = SimClock()
        clock.sleep(2.5)
        clock.sleep(0.5)
        assert clock.now == 3.0

    def test_negative_sleep_rejected(self):
        with pytest.raises(DataPlatformError):
            SimClock().sleep(-1)


class TestRetryPolicy:
    def test_schedule_deterministic(self):
        a = RetryPolicy(max_attempts=6, seed=42).schedule()
        b = RetryPolicy(max_attempts=6, seed=42).schedule()
        assert a == b
        assert len(a) == 5

    def test_different_seed_different_jitter(self):
        a = RetryPolicy(max_attempts=6, seed=1).schedule()
        b = RetryPolicy(max_attempts=6, seed=2).schedule()
        assert a != b

    def test_delays_capped_and_positive(self):
        policy = RetryPolicy(
            max_attempts=12, base_delay=0.1, max_delay=3.0, jitter=0.9, seed=0
        )
        for delay in policy.schedule():
            assert 0 < delay <= 3.0

    def test_no_jitter_is_pure_exponential(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, max_delay=100.0, jitter=0.0
        )
        assert policy.schedule() == [1.0, 2.0, 4.0, 8.0]

    def test_call_retries_then_succeeds(self):
        clock = SimClock()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("boom")
            return "ok"

        retries = []
        out = RetryPolicy(max_attempts=4, jitter=0.0).call(
            flaky, clock=clock, on_retry=lambda k, d, e: retries.append(d)
        )
        assert out == "ok"
        assert calls["n"] == 3
        assert clock.now == pytest.approx(sum(retries))
        assert len(retries) == 2

    def test_call_exhausts_attempts(self):
        def always_fails():
            raise TransientError("down")

        with pytest.raises(TransientError):
            RetryPolicy(max_attempts=3).call(always_fails, clock=SimClock())

    def test_non_retryable_fails_fast(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise StorageError("deterministic")

        with pytest.raises(StorageError):
            RetryPolicy(max_attempts=5).call(broken, clock=SimClock())
        assert calls["n"] == 1

    def test_invalid_policies_rejected(self):
        with pytest.raises(DataPlatformError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(DataPlatformError):
            RetryPolicy(base_delay=0)
        with pytest.raises(DataPlatformError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(DataPlatformError):
            RetryPolicy(multiplier=0.5)


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        policy = FaultPolicy(read_failure_rate=0.3)
        a = FaultInjector(policy, seed=9)
        b = FaultInjector(policy, seed=9)
        seq_a = [a.should("read_failure") for _ in range(50)]
        seq_b = [b.should("read_failure") for _ in range(50)]
        assert seq_a == seq_b
        assert any(seq_a)  # 50 draws at 0.3 fire with near-certainty
        # The stream id is pinned: renumbering the kind must fail here,
        # not silently reshuffle every seeded chaos run.
        injector = FaultInjector(FaultPolicy(read_failure_rate=0.3), seed=7)
        drawn = "".join(str(int(injector.should("read_failure"))) for _ in range(16))
        assert drawn == "0010001110000100"

    def test_disabled_never_fires(self):
        injector = FaultInjector.disabled()
        assert not any(injector.should("read_failure") for _ in range(100))
        assert injector.total_injected == 0

    def test_injected_counts(self):
        injector = FaultInjector(FaultPolicy(read_failure_rate=0.5), seed=0)
        fired = sum(injector.should("read_failure") for _ in range(100))
        assert injector.injected["read_failure"] == fired > 0

    def test_bad_rate_rejected(self):
        with pytest.raises(DataPlatformError):
            FaultPolicy(read_failure_rate=1.0)
        with pytest.raises(DataPlatformError):
            FaultInjector().should("meteor_strike")


class TestSelfHealingStore:
    def test_corrupt_replica_detected_and_repaired(self):
        store = BlockStore(num_nodes=3, replication=2, block_size=16)
        payload = b"checksummed-data" * 4
        store.write("/f", payload)
        status = store.status("/f")
        bad_node = status.blocks[0].replicas[0]
        store.corrupt_block("/f", 0, bad_node)
        assert store.read("/f") == payload
        assert store.corrupt_replicas_detected == 1
        assert store.health.replicas_repaired == 1
        # The repaired replica now passes its checksum: re-reading is clean.
        assert store.read("/f") == payload
        assert store.corrupt_replicas_detected == 1

    def test_repair_disabled_counts_but_leaves_corrupt(self):
        store = BlockStore(
            num_nodes=3, replication=2, block_size=16, auto_repair=False
        )
        store.write("/f", b"x" * 16)
        store.corrupt_block("/f", 0, store.status("/f").blocks[0].replicas[0])
        store.read("/f")
        store.read("/f")
        assert store.corrupt_replicas_detected == 2  # still corrupt
        assert store.health.replicas_repaired == 0

    def test_read_path_triggers_re_replication(self):
        store = BlockStore(num_nodes=3, replication=2, block_size=8)
        payload = b"q" * 32
        store.write("/f", payload)
        store.kill_node(store.status("/f").blocks[0].replicas[0])
        assert store.read("/f") == payload
        # The read healed the file without a manual re_replicate() call.
        assert store.health.replicas_recreated > 0
        for block in store.status("/f").blocks:
            live = [n for n in block.replicas if store._node(n).alive]
            assert len(live) >= 2

    def test_transient_faults_absorbed_by_retry(self):
        injector = FaultInjector(FaultPolicy(read_failure_rate=0.05), seed=3)
        store = BlockStore(
            num_nodes=3,
            replication=2,
            block_size=8,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=8, jitter=0.0, seed=3),
        )
        payload = bytes(range(64))
        store.write("/f", payload)
        for _ in range(20):
            assert store.read("/f") == payload
        assert store.health.transient_read_failures > 0
        assert store.health.read_retries == store.health.transient_read_failures

    def test_transient_fault_without_retry_policy_raises(self):
        injector = FaultInjector(FaultPolicy(read_failure_rate=0.99), seed=0)
        store = BlockStore(num_nodes=3, fault_injector=injector)
        store.write("/f", b"x")
        with pytest.raises(TransientError):
            for _ in range(50):
                store.read("/f")

    def test_re_replicate_completes_scan_and_lists_all_lost(self):
        store = BlockStore(num_nodes=3, replication=1, block_size=4)
        store.write("/lost_a", b"aaaa")
        store.write("/lost_b", b"bbbb")
        store.write("/safe", b"ssss")
        # The balancer placed each single-replica block on its own node;
        # kill the two holding the "lost" files, keep /safe's alive.
        victims = {
            store.status(p).blocks[0].replicas[0] for p in ("/lost_a", "/lost_b")
        }
        survivor = store.status("/safe").blocks[0].replicas[0]
        assert survivor not in victims
        for node_id in victims:
            store.kill_node(node_id)
        with pytest.raises(StorageError) as err:
            store.re_replicate()
        # One error, naming every lost block — not just the first.
        assert "/lost_a" in str(err.value)
        assert "/lost_b" in str(err.value)
        # The scan completed: the surviving file is untouched and readable.
        assert store.read("/safe") == b"ssss"


class TestQuarantineETL:
    @pytest.fixture()
    def schema(self):
        return Schema.of(imsi="int", dur="float")

    def test_rejects_land_in_dead_letter_table(self, schema):
        catalog = Catalog()
        job = ETLJob(schema, "cdr")
        records = [
            {"imsi": 1, "dur": 1.0},
            {"imsi": "bad", "dur": 2.0},
            {"dur": 3.0},
            {"imsi": 4, "dur": 4.0},
        ]
        stats = job.run(records, catalog)
        assert stats.rows_loaded == 2
        assert stats.rows_rejected == stats.rows_quarantined == 2
        dead = catalog.load(f"cdr{QUARANTINE_SUFFIX}")
        assert dead.num_rows == 2
        assert sorted(dead["reason"].tolist()) == ["badtype:imsi", "missing:imsi"]
        assert "'dur': 3.0" in "".join(dead["record"].tolist())

    def test_quarantine_off_keeps_counters_only(self, schema):
        catalog = Catalog()
        stats = ETLJob(schema, "cdr").run(
            [{"imsi": 1}], catalog, quarantine=False
        )
        assert stats.rows_rejected == 1
        assert stats.rows_quarantined == 0
        assert not catalog.exists(f"cdr{QUARANTINE_SUFFIX}")

    def test_failed_job_never_registers_target(self, schema):
        # Regression: the reject gate used to fire only after catalog.save,
        # leaving a mostly-empty table registered by the failed job.
        catalog = Catalog()
        bad = [{"imsi": 1}, {"imsi": 2}, {"imsi": 3, "dur": 1.0}]
        with pytest.raises(ETLError):
            ETLJob(schema, "cdr").run(bad, catalog, max_reject_fraction=0.5)
        assert not catalog.exists("cdr")
        # The rejects are still quarantined for diagnosis.
        assert catalog.load(f"cdr{QUARANTINE_SUFFIX}").num_rows == 2

    def test_garbled_records_quarantined_dropped_records_lost(self, schema):
        # A lossy, corrupting vendor adapter: every 7th record never
        # arrives, every 5th carries an uncoercible value.
        catalog = Catalog()
        rows = [{"imsi": i, "dur": float(i)} for i in range(200)]
        arrived = [row for i, row in enumerate(rows) if i % 7 != 3]
        feed = [
            {**row, "dur": "<garbled>"} if i % 5 == 2 else row
            for i, row in enumerate(arrived)
        ]
        garbled = sum(1 for row in feed if row["dur"] == "<garbled>")
        stats = ETLJob(schema, "cdr").run(feed, catalog)
        assert stats.rows_read == len(arrived) < len(rows)
        assert stats.rows_loaded + stats.rows_rejected == stats.rows_read
        assert stats.rows_rejected == garbled > 0
        assert catalog.load(f"cdr{QUARANTINE_SUFFIX}").num_rows == garbled


class TestDegradedWideTable:
    @pytest.fixture(scope="class")
    def chaos_catalog(self, tiny_world):
        store = BlockStore(num_nodes=4, replication=3)
        catalog = Catalog(store)
        tiny_world.load_catalog(catalog)
        catalog.clear_cache()
        return catalog, store

    def test_missing_source_drops_family_not_run(self, tiny_world, chaos_catalog):
        from repro.features import WideTableBuilder

        catalog, _ = chaos_catalog
        source = CatalogTableSource(catalog)
        tables = source.tables_for(5)
        assert "cs_kpi" in tables  # intact feed serves everything
        catalog.drop("cs_kpi", database="telco")
        builder = WideTableBuilder(
            tiny_world, table_source=CatalogTableSource(catalog).tables_for
        )
        health = PipelineHealthReport()
        survivors = builder.surviving_categories(
            [5, 6], ("F1", "F2", "F3"), health
        )
        assert survivors == ("F1", "F3")
        assert set(health.families_dropped) == {"F2"}
        assert health.degraded
        assert health.status == "degraded(F2)"
        wide = builder.features(5, survivors)
        assert wide.n_rows == len(tiny_world.month(5).imsi)

    def test_baseline_family_is_not_droppable(self, tiny_world):
        from repro.features import WideTableBuilder

        builder = WideTableBuilder(tiny_world, table_source=lambda month: {})
        with pytest.raises(FeatureError):
            builder.surviving_categories([5], ("F1", "F2"))


@pytest.fixture(scope="module")
def clean_result(tiny_world, tiny_scale, small_model):
    pipeline = ChurnPipeline(
        tiny_world, tiny_scale, categories=("F1", "F2"), model=small_model
    )
    return pipeline.run_window(WindowSpec((5,), 6))


class TestEndToEndChaos:
    def test_zero_faults_bit_identical_to_plain_path(
        self, tiny_world, tiny_scale, small_model, clean_result
    ):
        store = BlockStore(num_nodes=4, replication=3)
        catalog = Catalog(store)
        tiny_world.load_catalog(catalog)
        catalog.clear_cache()
        source = CatalogTableSource(catalog)
        pipeline = ChurnPipeline(
            tiny_world,
            tiny_scale,
            categories=("F1", "F2"),
            model=small_model,
            table_source=source.tables_for,
            store=store,
            allow_degraded=True,
        )
        result = pipeline.run_window(WindowSpec((5,), 6))
        assert result.health is not None
        assert not result.health.degraded
        assert result.health.families_used == ["F1", "F2"]
        assert result.predictor.degradation_state == "full"
        assert np.array_equal(result.scores, clean_result.scores)
        assert np.array_equal(result.test_slots, clean_result.test_slots)
        assert result.auc == clean_result.auc
        assert result.pr_auc == clean_result.pr_auc

    def test_chaos_run_degrades_gracefully(
        self, tiny_world, tiny_scale, small_model, clean_result
    ):
        injector = FaultInjector(FaultPolicy(read_failure_rate=0.03), seed=1234)
        store = BlockStore(
            num_nodes=4,
            replication=3,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=8, seed=1234),
        )
        catalog = Catalog(store)
        tiny_world.load_catalog(catalog)
        catalog.clear_cache()

        # Chaos: corrupt one replica of a table the window will read, kill
        # one datanode, and take the F2 feed down mid-run.
        bss_path = next(
            p for p in store.list_files("/warehouse/telco") if "month_5" in p
        )
        status = store.status(bss_path)
        store.corrupt_block(bss_path, 0, status.blocks[0].replicas[0])
        store.kill_node(status.blocks[0].replicas[1])
        catalog.drop("cs_kpi", database="telco")

        source = CatalogTableSource(catalog)
        pipeline = ChurnPipeline(
            tiny_world,
            tiny_scale,
            categories=("F1", "F2"),
            model=small_model,
            table_source=source.tables_for,
            store=store,
            allow_degraded=True,
        )
        result = pipeline.run_window(WindowSpec((5,), 6))
        health = result.health

        # The pipeline completed and still ships a ranked top-U list.
        assert len(result.scores) == len(clean_result.scores)
        u = min(50, len(result.scores))
        top = np.argsort(-result.scores, kind="mergesort")[:u]
        assert len(np.unique(top)) == u

        # Health report records the repair / retry / degradation events.
        assert health.degraded
        assert set(health.families_dropped) == {"F2"}
        assert health.families_used == ["F1"]
        assert health.corrupt_replicas_detected >= 1
        assert health.repaired_replicas >= 1
        assert health.re_replicated_blocks >= 1
        assert result.predictor.degradation_state == "degraded(F2)"
        assert result.predictor.is_degraded
        rendered = health.render()
        assert "degraded(F2)" in rendered and "repaired" in rendered

        # Graceful degradation: losing F2 costs PR-AUC, but boundedly
        # (Table 2 scale: one family's lift, not a collapse).
        assert result.pr_auc > 0.0
        assert result.pr_auc >= clean_result.pr_auc - 0.25
        assert result.auc > 0.6

    def test_monitoring_consumes_health_report(self, clean_result):
        health = PipelineHealthReport(families_used=["F1"])
        health.drop_family("F2", "feed down")
        rng = np.random.default_rng(0)
        features = rng.normal(size=(300, 3))
        monitor = ModelMonitor(["a", "b", "c"], features)
        report = monitor.compare(features, pipeline_health=health)
        assert report.degraded
        assert not report.healthy  # degradation alone flips health
        assert not report.alerts  # ... even with zero drift
        assert "degraded(F2)" in report.render()
        clean = monitor.compare(features)
        assert clean.healthy
