"""Unit tests for the Hive-like catalog."""

import numpy as np
import pytest

from repro.dataplat.blockstore import BlockStore
from repro.dataplat.catalog import Catalog
from repro.dataplat.table import Table
from repro.errors import CatalogError


@pytest.fixture()
def catalog() -> Catalog:
    return Catalog(BlockStore(num_nodes=2, replication=1, block_size=1 << 16))


@pytest.fixture()
def table() -> Table:
    return Table.from_arrays(imsi=np.array([1, 2]), v=np.array([1.0, 2.0]))


class TestSaveLoad:
    def test_round_trip(self, catalog, table):
        catalog.save(table, "t")
        assert catalog.load("t") == table

    def test_load_unknown(self, catalog):
        with pytest.raises(CatalogError):
            catalog.load("nope")

    def test_save_unknown_database(self, catalog, table):
        with pytest.raises(CatalogError):
            catalog.save(table, "t", database="nodb")

    def test_database_scoping(self, catalog, table):
        catalog.create_database("telco")
        catalog.save(table, "t", database="telco")
        assert catalog.exists("t", database="telco")
        assert not catalog.exists("t")

    def test_partitions_concatenate(self, catalog, table):
        catalog.save(table, "t", partition="month=1")
        catalog.save(table, "t", partition="month=2")
        assert catalog.load("t").num_rows == 4
        assert catalog.load("t", partition="month=1").num_rows == 2

    def test_unknown_partition(self, catalog, table):
        catalog.save(table, "t", partition="month=1")
        with pytest.raises(CatalogError):
            catalog.load("t", partition="month=9")

    def test_partition_schema_must_match(self, catalog, table):
        catalog.save(table, "t", partition="month=1")
        with pytest.raises(CatalogError):
            catalog.save(table.select(["imsi"]), "t", partition="month=2")

    def test_bytes_actually_stored(self, catalog, table):
        catalog.save(table, "t")
        assert catalog.store.total_bytes > 0


class TestMetadata:
    def test_info(self, catalog, table):
        catalog.save(table, "t", partition="month=1")
        info = catalog.info("t")
        assert info.qualified_name == "default.t"
        assert info.partitions == ("month=1",)
        assert info.schema == table.schema

    def test_tables_listing(self, catalog, table):
        catalog.save(table, "b")
        catalog.save(table, "a")
        assert catalog.tables() == ["a", "b"]

    def test_partitions_listing(self, catalog, table):
        catalog.save(table, "t", partition="month=2")
        catalog.save(table, "t", partition="month=1")
        assert catalog.partitions("t") == ["month=1", "month=2"]

    def test_drop(self, catalog, table):
        catalog.save(table, "t")
        catalog.drop("t")
        assert not catalog.exists("t")
        assert catalog.store.total_bytes == 0

    def test_drop_unknown(self, catalog):
        with pytest.raises(CatalogError):
            catalog.drop("nope")

    def test_databases(self, catalog):
        catalog.create_database("x")
        assert "x" in catalog.databases()
        assert "default" in catalog.databases()


class TestTempViews:
    def test_register_temp_is_queryable(self, catalog, table):
        catalog.register_temp(table, "view")
        assert catalog.load("view") == table

    def test_register_temp_writes_no_bytes(self, catalog, table):
        catalog.register_temp(table, "view")
        assert catalog.store.total_bytes == 0

    def test_register_temp_replaces(self, catalog, table):
        catalog.register_temp(table, "view")
        other = table.select(["imsi"])
        catalog.register_temp(other, "view")
        assert catalog.load("view") == other

    def test_temp_cannot_shadow_persisted(self, catalog, table):
        catalog.save(table, "t")
        with pytest.raises(CatalogError):
            catalog.register_temp(table, "t")
