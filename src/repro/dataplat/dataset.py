"""Partitioned datasets with lineage — a mini-RDD.

The paper's feature pipeline is "hand coded in Spark"; a :class:`Dataset`
reproduces the programming model: an immutable collection of partitions (each
a :class:`~.table.Table`), transformed lazily through ``map_partitions`` /
``filter`` / ``union`` / ``repartition_by_key`` (a shuffle), and materialized
with actions (``collect``, ``count``, ``reduce``).  Each dataset records the
operation that produced it so ``lineage()`` can be inspected, mirroring RDD
lineage-based recovery.

Actions materialize partitions through an
:class:`~repro.dataplat.executor.ExecutorBackend`: the default serial
backend evaluates them lazily in-process exactly as before, while a parallel
backend fans the partition tasks out Spark-style — wide (shuffle) parents
are materialized stage-by-stage first, then the final partitions run
concurrently.  Partition thunks are plain picklable callables, so a process
pool can ship a task (and the lineage it needs) to a worker; tasks that
capture unpicklable user functions transparently fall back to in-process
execution.  Under a :class:`~repro.dataplat.resilience.TaskRuntime`, fan-out
tasks draw their injected faults keyed by ``(op, partition, attempt)`` so
chaos is deterministic per task id, not per submission order.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..errors import ExecutionError
from . import observability
from .executor import ExecutorBackend, resolve_backend
from .observability import span
from .resilience import FaultInjector, SimClock, TaskRuntime
from .schema import Schema
from .table import Table

#: A transformation applied independently to each partition.
PartitionFn = Callable[[Table], Table]


class Dataset:
    """An immutable, partitioned, lazily-evaluated dataset of table chunks.

    Construction is cheap: transformations build a plan (a chain of parent
    datasets plus per-partition thunks); partitions are computed on first
    action and cached, like Spark's ``persist``.

    An optional :class:`~repro.dataplat.resilience.TaskRuntime` (inherited
    by every derived dataset) executes partition tasks under fault
    injection and retry; a retried task re-invokes its thunk, recomputing
    uncached ancestors — recovery by lineage, as in Spark.
    """

    def __init__(
        self,
        schema: Schema,
        partition_thunks: Sequence[Callable[[], Table]],
        op: str,
        parents: Sequence["Dataset"] = (),
        runtime: TaskRuntime | None = None,
    ) -> None:
        self._schema = schema
        self._thunks = list(partition_thunks)
        self._cache: list[Table | None] = [None] * len(partition_thunks)
        self._op = op
        self._parents = tuple(parents)
        #: Wide (shuffle) dependency: every parent partition feeds every
        #: child partition, so parents are materialized as a stage first
        #: when fanning out in parallel.
        self._wide = False
        if runtime is None:
            for parent in self._parents:
                if parent._runtime is not None:
                    runtime = parent._runtime
                    break
        self._runtime = runtime

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: Table,
        num_partitions: int = 4,
        runtime: TaskRuntime | None = None,
    ) -> "Dataset":
        """Split a table into ``num_partitions`` row ranges."""
        if num_partitions < 1:
            raise ExecutionError(f"num_partitions must be >= 1, got {num_partitions}")
        bounds = np.linspace(0, table.num_rows, num_partitions + 1).astype(int)
        thunks = [
            _SliceThunk(table, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        return cls(
            table.schema,
            thunks,
            op=f"from_table[{num_partitions}]",
            runtime=runtime,
        )

    @classmethod
    def from_partitions(
        cls,
        partitions: Sequence[Table],
        runtime: TaskRuntime | None = None,
    ) -> "Dataset":
        """Wrap pre-built tables (all must share a schema)."""
        if not partitions:
            raise ExecutionError("need at least one partition")
        schema = partitions[0].schema
        for p in partitions[1:]:
            if p.schema != schema:
                raise ExecutionError("partitions have differing schemas")
        thunks = [_ConstThunk(p) for p in partitions]
        return cls(
            schema,
            thunks,
            op=f"from_partitions[{len(partitions)}]",
            runtime=runtime,
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_partitions(self) -> int:
        return len(self._thunks)

    @property
    def runtime(self) -> TaskRuntime | None:
        """The task runtime partition tasks execute under (if any)."""
        return self._runtime

    def lineage(self) -> list[str]:
        """Operations from root to this dataset (one entry per ancestor)."""
        chain: list[str] = []
        node: Dataset | None = self
        seen = set()
        stack = [self]
        order: list[Dataset] = []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            order.append(node)
            stack.extend(node._parents)
        for ds in reversed(order):
            chain.append(ds._op)
        return chain

    # ------------------------------------------------------------------
    # Transformations (lazy)
    # ------------------------------------------------------------------

    def map_partitions(self, fn: PartitionFn, schema: Schema, op: str = "map") -> "Dataset":
        """Apply ``fn`` to every partition, producing tables with ``schema``."""
        out = Dataset(schema, [], op=op, parents=[self])
        out._thunks = [
            _MapThunk(self, i, fn, schema, op) for i in range(self.num_partitions)
        ]
        out._cache = [None] * self.num_partitions
        return out

    def filter(self, predicate: Callable[[Table], np.ndarray]) -> "Dataset":
        """Keep rows whose vectorized ``predicate`` is true."""
        return self.map_partitions(
            _FilterFn(predicate), self._schema, op="filter"
        )

    def select(self, names: Sequence[str]) -> "Dataset":
        """Project every partition onto ``names``."""
        schema = self._schema.select(names)
        return self.map_partitions(_SelectFn(list(names)), schema, op="select")

    def union(self, other: "Dataset") -> "Dataset":
        """Concatenate partitions of two schema-compatible datasets."""
        if other.schema != self._schema:
            raise ExecutionError("union requires identical schemas")
        out = Dataset(self._schema, [], op="union", parents=[self, other])
        out._thunks = [
            _PartitionThunk(self, i) for i in range(self.num_partitions)
        ] + [_PartitionThunk(other, i) for i in range(other.num_partitions)]
        out._cache = [None] * len(out._thunks)
        return out

    def repartition_by_key(self, key: str, num_partitions: int) -> "Dataset":
        """Shuffle: co-locate rows with equal ``key`` hash in one partition.

        This is the platform's shuffle primitive; joins and grouped
        aggregations over datasets build on it.
        """
        if num_partitions < 1:
            raise ExecutionError(f"num_partitions must be >= 1, got {num_partitions}")
        out = Dataset(
            self._schema, [], op=f"shuffle[{key}->{num_partitions}]", parents=[self]
        )
        out._thunks = [
            _ShuffleThunk(self, key, num_partitions, t)
            for t in range(num_partitions)
        ]
        out._cache = [None] * num_partitions
        out._wide = True
        return out

    def join(self, other: "Dataset", on: str, num_partitions: int = 4) -> "Dataset":
        """Shuffle equi-join on a single key column."""
        left = self.repartition_by_key(on, num_partitions)
        right = other.repartition_by_key(on, num_partitions)

        probe = Table.empty(self._schema).join(
            Table.empty(other.schema), on=[on]
        )
        out = Dataset(probe.schema, [], op=f"join[{on}]", parents=[left, right])
        out._thunks = [
            _JoinThunk(left, right, i, on) for i in range(num_partitions)
        ]
        out._cache = [None] * num_partitions
        return out

    def group_by_key(
        self,
        key: str,
        aggregations: dict[str, tuple[str, str]],
        num_partitions: int = 4,
    ) -> "Dataset":
        """Distributed grouped aggregation.

        Shuffles rows by ``key`` so each group lives in one partition, then
        aggregates each partition independently — the map-side/reduce-side
        split of a distributed GROUP BY.  ``aggregations`` follows
        :meth:`Table.group_by`.
        """
        shuffled = self.repartition_by_key(key, num_partitions)
        probe = Table.empty(self._schema).group_by([key], aggregations)
        out = Dataset(
            probe.schema, [], op=f"group_by[{key}]", parents=[shuffled]
        )
        out._thunks = [
            _GroupThunk(shuffled, i, key, dict(aggregations), probe.schema)
            for i in range(num_partitions)
        ]
        out._cache = [None] * num_partitions
        return out

    # ------------------------------------------------------------------
    # Actions (eager)
    # ------------------------------------------------------------------

    def collect(
        self, backend: "ExecutorBackend | str | None" = None
    ) -> Table:
        """Materialize the whole dataset as one table.

        ``backend`` selects how partition tasks execute (see
        :mod:`repro.dataplat.executor`); ``None`` uses the process-wide
        default.
        """
        self.materialize(backend)
        return Table.concat(
            [self._partition(i) for i in range(self.num_partitions)]
        )

    def count(self, backend: "ExecutorBackend | str | None" = None) -> int:
        """Total number of rows."""
        self.materialize(backend)
        return sum(self._partition(i).num_rows for i in range(self.num_partitions))

    def reduce_column(
        self,
        name: str,
        fn: str = "sum",
        backend: "ExecutorBackend | str | None" = None,
    ) -> float:
        """Reduce one numeric column across all partitions.

        ``fn`` is ``sum``, ``min`` or ``max``; partial results per partition
        are combined, as a distributed reduce would.
        """
        self.materialize(backend)
        partials = []
        for i in range(self.num_partitions):
            col = self._partition(i).column(name)
            if len(col) == 0:
                continue
            col = col.astype(np.float64)
            if fn == "sum":
                partials.append(col.sum())
            elif fn == "min":
                partials.append(col.min())
            elif fn == "max":
                partials.append(col.max())
            else:
                raise ExecutionError(f"unknown reduce function {fn!r}")
        if not partials:
            return 0.0
        if fn == "sum":
            return float(np.sum(partials))
        if fn == "min":
            return float(np.min(partials))
        return float(np.max(partials))

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def materialize(
        self, backend: "ExecutorBackend | str | None" = None
    ) -> "Dataset":
        """Compute and cache every partition through ``backend``.

        A serial backend keeps the historical behaviour: partitions are
        evaluated lazily in-process, with counter-based fault draws.  A
        parallel backend executes Spark-style stages — wide (shuffle)
        parents first, then this dataset's partitions fanned out
        concurrently, each task drawing faults keyed by its task id so
        results and chaos decisions are bit-identical to a serial run.
        """
        resolved = resolve_backend(backend)
        if resolved.parallelism <= 1:
            pending = [i for i, c in enumerate(self._cache) if c is None]
            if pending:
                with span(
                    "dataset.stage",
                    op=self._op,
                    backend=resolved.name,
                    tasks=len(pending),
                ):
                    for i in pending:
                        self._partition(i)
            return self
        self._materialize_stages(resolved)
        return self

    def _materialize_stages(self, backend: ExecutorBackend) -> None:
        # Wide dependencies form stage barriers: materializing shuffle
        # parents here (recursively, bottom-up) means fan-out tasks ship
        # cached parent tables instead of recomputing every parent
        # partition once per target.
        for parent in self._stage_parents():
            parent._materialize_stages(backend)
        pending = [i for i, c in enumerate(self._cache) if c is None]
        if not pending:
            return
        spec = None
        if self._runtime is not None:
            rt = self._runtime
            spec = (rt.retry_policy, rt.injector.policy, rt.injector.seed)
        traced = observability.enabled()
        tasks = [(spec, self._op, i, self._thunks[i], traced) for i in pending]
        with span(
            "dataset.stage", op=self._op, backend=backend.name, tasks=len(pending)
        ):
            results = backend.map(_run_partition_task, tasks)
            tracer = observability.get_tracer()
            for i, (table, counters, span_dicts) in zip(pending, results):
                self._cache[i] = table
                if counters is not None and self._runtime is not None:
                    self._runtime.absorb_counters(counters)
                if span_dicts and tracer is not None:
                    # Worker subtrees graft under this stage span, like the
                    # fault counters folding into the parent runtime.
                    tracer.attach(span_dicts)

    def _stage_parents(self) -> list["Dataset"]:
        """Nearest wide ancestors (plus wide self's parents) to pre-build."""
        if self._wide:
            # A shuffle reads every parent partition; build parents first.
            return list(self._parents)
        found: list[Dataset] = []
        seen: set[int] = set()
        stack = list(self._parents)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._wide:
                found.append(node)
            else:
                stack.extend(node._parents)
        return found

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _partition(self, i: int) -> Table:
        cached = self._cache[i]
        if cached is None:
            with span("dataset.task", op=self._op, partition=i) as sp:
                if self._runtime is None:
                    cached = self._thunks[i]()
                else:
                    cached = self._runtime.run_task(self._op, i, self._thunks[i])
                    sp.set_tag(
                        "attempts",
                        self._runtime.task_attempts.get((self._op, i), 1),
                    )
                sp.incr("rows", cached.num_rows)
            self._cache[i] = cached
        return cached


# ----------------------------------------------------------------------
# Picklable partition thunks and task helpers
#
# Thunks are small callable objects (not closures) so a process-pool
# backend can pickle a task together with the lineage slice it needs; a
# thunk wrapping an unpicklable user function simply makes its batch fall
# back to in-process execution.
# ----------------------------------------------------------------------


class _ConstThunk:
    """A pre-built partition."""

    def __init__(self, table: Table) -> None:
        self.table = table

    def __call__(self) -> Table:
        return self.table


class _SliceThunk:
    """One row-range of a root table."""

    def __init__(self, table: Table, lo: int, hi: int) -> None:
        self.table = table
        self.lo = lo
        self.hi = hi

    def __call__(self) -> Table:
        return self.table.take(np.arange(self.lo, self.hi))


class _PartitionThunk:
    """Partition ``index`` of a parent dataset (union re-exposure)."""

    def __init__(self, parent: Dataset, index: int) -> None:
        self.parent = parent
        self.index = index

    def __call__(self) -> Table:
        return self.parent._partition(self.index)


class _MapThunk:
    """``fn`` over one parent partition, schema-checked."""

    def __init__(
        self, parent: Dataset, index: int, fn: PartitionFn, schema: Schema, op: str
    ) -> None:
        self.parent = parent
        self.index = index
        self.fn = fn
        self.schema = schema
        self.op = op

    def __call__(self) -> Table:
        return _check_schema(
            self.fn(self.parent._partition(self.index)), self.schema, self.op
        )


class _FilterFn:
    """Partition function applying a row predicate."""

    def __init__(self, predicate: Callable[[Table], np.ndarray]) -> None:
        self.predicate = predicate

    def __call__(self, table: Table) -> Table:
        return table.filter(self.predicate)


class _SelectFn:
    """Partition function projecting onto named columns."""

    def __init__(self, names: list[str]) -> None:
        self.names = names

    def __call__(self, table: Table) -> Table:
        return table.select(self.names)


class _ShuffleThunk:
    """All parent rows whose key hashes to ``target``."""

    def __init__(
        self, parent: Dataset, key: str, num_partitions: int, target: int
    ) -> None:
        self.parent = parent
        self.key = key
        self.num_partitions = num_partitions
        self.target = target

    def __call__(self) -> Table:
        pieces = []
        for i in range(self.parent.num_partitions):
            part = self.parent._partition(i)
            hashes = _bucket_hash(part.column(self.key)) % self.num_partitions
            pieces.append(part.mask(hashes == self.target))
        return Table.concat(pieces)


class _JoinThunk:
    """Co-partitioned equi-join of one shuffle bucket."""

    def __init__(self, left: Dataset, right: Dataset, index: int, on: str) -> None:
        self.left = left
        self.right = right
        self.index = index
        self.on = on

    def __call__(self) -> Table:
        return self.left._partition(self.index).join(
            self.right._partition(self.index), on=[self.on]
        )


class _GroupThunk:
    """Reduce-side grouped aggregation of one shuffle bucket."""

    def __init__(
        self,
        shuffled: Dataset,
        index: int,
        key: str,
        aggregations: dict[str, tuple[str, str]],
        out_schema: Schema,
    ) -> None:
        self.shuffled = shuffled
        self.index = index
        self.key = key
        self.aggregations = aggregations
        self.out_schema = out_schema

    def __call__(self) -> Table:
        part = self.shuffled._partition(self.index)
        if part.num_rows == 0:
            return Table.empty(self.out_schema)
        return part.group_by([self.key], self.aggregations)


def _run_partition_task(args):
    """Top-level fan-out task body (must be picklable by name).

    Runs one partition thunk, optionally under a *fresh* task runtime built
    from ``spec`` — fresh so the worker never mutates shared parent state,
    which makes the in-process pickling fallback and the cross-process path
    behave identically.  Returns ``(table, counters, spans)`` where counters
    is the worker runtime's accounting and spans the worker tracer's export,
    both folded back into the parent by the caller.

    When the submitting process had tracing on, the task runs under a fresh
    local :class:`~repro.dataplat.observability.Tracer` (installed for the
    duration, previous tracer restored) so the same code path produces the
    same span tree in a pool worker and on the in-process fallback.
    """
    spec, op, index, thunk, traced = args
    worker_tracer = observability.Tracer() if traced else None
    previous = observability.set_tracer(worker_tracer) if traced else None
    try:
        with observability.span("dataset.task", op=op, partition=index) as sp:
            if spec is None:
                result, counters = thunk(), None
            else:
                retry_policy, fault_policy, fault_seed = spec
                runtime = TaskRuntime(
                    retry_policy=retry_policy,
                    injector=FaultInjector(fault_policy, seed=fault_seed),
                    clock=SimClock(),
                )
                result = runtime.run_task_keyed(op, index, thunk)
                counters = runtime.snapshot()
                sp.set_tag(
                    "attempts", runtime.task_attempts.get((op, index), 1)
                )
                if runtime.task_retries:
                    sp.set_tag("retries", runtime.task_retries)
            sp.incr("rows", result.num_rows)
    finally:
        if traced:
            observability.set_tracer(previous)
    spans = worker_tracer.export() if worker_tracer is not None else None
    return result, counters, spans


def _check_schema(table: Table, schema: Schema, op: str) -> Table:
    if table.schema != schema:
        raise ExecutionError(
            f"operation {op!r} produced schema {table.schema!r}, "
            f"declared {schema!r}"
        )
    return table


def _bucket_hash(values: np.ndarray) -> np.ndarray:
    """Stable non-negative bucket hash for a key column.

    Must be deterministic *across processes* (unlike builtin ``hash``,
    which is salted per interpreter): shuffle targets computed in different
    pool workers have to agree on every row's bucket.
    """
    if values.dtype.kind in "iub":
        return np.abs(values.astype(np.int64))
    # String keys: cheap deterministic per-value hash (crc32 is stable).
    import zlib

    return np.asarray(
        [zlib.crc32(str(v).encode("utf-8")) for v in values.tolist()],
        dtype=np.int64,
    )
