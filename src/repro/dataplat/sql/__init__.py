"""SQL front-end of the mini data platform.

The paper's feature engineering runs join and aggregation queries through
Spark SQL over Hive tables.  This package is a small but real SQL engine:

* :mod:`.lexer` tokenizes SQL text,
* :mod:`.parser` builds an AST (:mod:`.ast_nodes`) by recursive descent,
* :mod:`.planner` turns the AST into a logical plan (:mod:`.plan`) and runs
  rule-based optimizations (predicate pushdown, projection pruning),
* :mod:`.executor` evaluates plans over :class:`~repro.dataplat.catalog.Catalog`
  tables with vectorized numpy kernels,
* :mod:`.functions` is the scalar/aggregate function registry.

``EXPLAIN ANALYZE`` reads per-operator rows, time and storage counters
off the ``sql.*`` spans the executor records for every plan node.

The public entry point is :class:`SQLEngine`.
"""

from .engine import SQLEngine
from .scatter import ShardedSQLEngine

__all__ = ["SQLEngine", "ShardedSQLEngine"]
