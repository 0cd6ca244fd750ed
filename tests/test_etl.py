"""Unit tests for ETL jobs."""

import pytest

from repro.dataplat.catalog import Catalog
from repro.dataplat.etl import ETLJob, QUARANTINE_SUFFIX
from repro.dataplat.schema import Schema
from repro.errors import ETLError


@pytest.fixture()
def catalog() -> Catalog:
    return Catalog()


@pytest.fixture()
def schema() -> Schema:
    return Schema.of(imsi="int", dur="float", kind="string")


class TestETLJob:
    def test_clean_records_loaded(self, catalog, schema):
        job = ETLJob(schema, "cdr")
        records = [
            {"imsi": 1, "dur": 2.5, "kind": "local"},
            {"imsi": 2, "dur": 0.0, "kind": "roam"},
        ]
        stats = job.run(records, catalog)
        assert stats.rows_read == 2
        assert stats.rows_loaded == 2
        assert stats.rows_rejected == 0
        table = catalog.load("cdr")
        assert table.num_rows == 2
        assert table["dur"].tolist() == [2.5, 0.0]

    def test_missing_column_rejected_and_counted(self, catalog, schema):
        job = ETLJob(schema, "cdr")
        stats = job.run([{"imsi": 1, "dur": 1.0}], catalog)
        assert stats.rows_rejected == 1
        assert stats.reject_reasons == {"missing:kind": 1}
        assert catalog.load("cdr").num_rows == 0

    def test_bad_type_rejected(self, catalog, schema):
        job = ETLJob(schema, "cdr")
        stats = job.run(
            [{"imsi": "not-int", "dur": 1.0, "kind": "x"}], catalog
        )
        assert stats.reject_reasons == {"badtype:imsi": 1}

    def test_int_coercion_rules(self, catalog):
        schema = Schema.of(x="int")
        job = ETLJob(schema, "t")
        stats = job.run([{"x": 3.0}, {"x": 3.5}, {"x": True}], catalog)
        assert stats.rows_loaded == 2  # 3.0 and True coerce; 3.5 does not
        assert stats.reject_reasons == {"badtype:x": 1}

    def test_bool_coercion_rules(self, catalog):
        schema = Schema.of(b="bool")
        job = ETLJob(schema, "t")
        stats = job.run([{"b": 1}, {"b": 0}, {"b": 2}], catalog)
        assert stats.rows_loaded == 2
        assert stats.rows_rejected == 1

    def test_transform_applies(self, catalog, schema):
        def scale(row: dict) -> dict:
            row["dur"] = row["dur"] * 60  # minutes → seconds
            return row

        job = ETLJob(schema, "cdr", transform=scale)
        job.run([{"imsi": 1, "dur": 2.0, "kind": "x"}], catalog)
        assert catalog.load("cdr")["dur"].tolist() == [120.0]

    def test_transform_can_drop(self, catalog, schema):
        job = ETLJob(
            schema, "cdr", transform=lambda r: r if r["dur"] > 0 else None
        )
        stats = job.run(
            [
                {"imsi": 1, "dur": 0.0, "kind": "x"},
                {"imsi": 2, "dur": 1.0, "kind": "y"},
            ],
            catalog,
        )
        assert stats.rows_loaded == 1
        assert stats.reject_reasons == {"transform_dropped": 1}

    def test_partitioned_load(self, catalog, schema):
        job = ETLJob(schema, "cdr")
        job.run([{"imsi": 1, "dur": 1.0, "kind": "x"}], catalog, partition="m=1")
        job.run([{"imsi": 2, "dur": 2.0, "kind": "y"}], catalog, partition="m=2")
        assert catalog.load("cdr").num_rows == 2


class TestPipeline:
    def test_pipeline_fails_on_high_reject_rate(self, catalog, schema):
        bad = [{"imsi": 1}, {"imsi": 2}, {"imsi": 3, "dur": 1.0, "kind": "x"}]
        with pytest.raises(ETLError):
            ETLJob(schema, "a").run(bad, catalog, max_reject_fraction=0.5)

    def test_pipeline_tolerates_low_reject_rate(self, catalog, schema):
        records = [{"imsi": i, "dur": 1.0, "kind": "x"} for i in range(9)]
        records.append({"imsi": 99})  # one reject out of ten
        stats = ETLJob(schema, "a").run(records, catalog, max_reject_fraction=0.5)
        assert stats.rows_loaded == 9

    def test_failed_pipeline_never_registers_target(self, catalog, schema):
        # Regression: the reject gate used to fire only after catalog.save,
        # leaving a mostly-empty table registered behind the ETLError.
        bad = [{"imsi": 1}, {"imsi": 2}, {"imsi": 3, "dur": 1.0, "kind": "x"}]
        with pytest.raises(ETLError):
            ETLJob(schema, "a").run(bad, catalog, max_reject_fraction=0.5)
        assert not catalog.exists("a")
        # The rejects were still quarantined for diagnosis.
        assert catalog.exists(f"a{QUARANTINE_SUFFIX}")
        assert catalog.load(f"a{QUARANTINE_SUFFIX}").num_rows == 2


class TestQuarantine:
    def test_rejects_land_in_dead_letter_table(self, catalog, schema):
        records = [
            {"imsi": 1, "dur": 1.0, "kind": "x"},
            {"imsi": "oops", "dur": 1.0, "kind": "x"},
            {"dur": 2.0, "kind": "y"},
        ]
        stats = ETLJob(schema, "cdr").run(records, catalog)
        assert stats.rows_quarantined == 2
        dead = catalog.load(f"cdr{QUARANTINE_SUFFIX}")
        assert sorted(dead["reason"].tolist()) == ["badtype:imsi", "missing:imsi"]

