"""Mini big-data platform: the substrate the churn system runs on.

The paper stores raw BSS/OSS tables in HDFS and does feature engineering with
Hive / Spark SQL.  This package is a faithful single-process analogue:

* :mod:`repro.dataplat.blockstore` — a mini-HDFS (namenode metadata plus
  block storage with replication accounting).
* :mod:`repro.dataplat.schema` / :mod:`repro.dataplat.table` — typed,
  columnar, numpy-backed tables.
* :mod:`repro.dataplat.catalog` — a Hive-like metastore.
* :mod:`repro.dataplat.sql` — a SQL engine (lexer → parser → logical plan →
  optimizer → executor) covering the joins and aggregations the feature
  pipeline needs.
* :mod:`repro.dataplat.etl` — extract-transform-load jobs from raw records
  into catalog tables.
* :mod:`repro.dataplat.resilience` — the fault-tolerant execution runtime:
  seeded chaos injection, retry with deterministic backoff, and the
  pipeline health report degraded runs emit.
* :mod:`repro.dataplat.observability` — tracing spans, the process-wide
  metrics registry, and the ``span``/``profiled`` profiling hooks threaded
  through every hot path above.
* :mod:`repro.dataplat.journal` — the write-ahead journal behind the
  catalog's crash-atomic commits, plus recovery and fsck.
* :mod:`repro.dataplat.sharding` — shared-nothing horizontal scale-out:
  the hash partitioner, :class:`~repro.dataplat.sharding.ShardedCatalog`
  (N independent catalogs co-partitioned on the customer id), and the
  :class:`~repro.dataplat.sharding.ShuffleExchange` repartition operator.
"""

from .blockstore import BlockStore, FileStatus, StorageHealth
from .catalog import Catalog
from .journal import Durability, RecoveryReport, fsck_store
from .observability import (
    MetricsRegistry,
    Tracer,
    get_metrics,
    profiled,
    span,
    trace,
)
from .resilience import (
    CatalogTableSource,
    FaultInjector,
    FaultPolicy,
    PipelineHealthReport,
    RetryPolicy,
    SimClock,
)
from .schema import Column, ColumnType, Schema
from .sharding import Placement, ShardedCatalog, ShuffleExchange, shard_of
from .sql import ShardedSQLEngine, SQLEngine
from .table import Table
from .telemetry import TELEMETRY_DATABASE, TelemetrySink, TelemetryWarehouse

__all__ = [
    "BlockStore",
    "Catalog",
    "CatalogTableSource",
    "Column",
    "ColumnType",
    "Durability",
    "RecoveryReport",
    "fsck_store",
    "FaultInjector",
    "FaultPolicy",
    "FileStatus",
    "MetricsRegistry",
    "PipelineHealthReport",
    "Placement",
    "RetryPolicy",
    "Schema",
    "ShardedCatalog",
    "ShardedSQLEngine",
    "shard_of",
    "ShuffleExchange",
    "SimClock",
    "SQLEngine",
    "StorageHealth",
    "TELEMETRY_DATABASE",
    "Table",
    "TelemetrySink",
    "TelemetryWarehouse",
    "Tracer",
    "get_metrics",
    "profiled",
    "span",
    "trace",
]
