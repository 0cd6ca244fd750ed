"""Shard-parallel wide-table assembly.

:class:`ShardedWideTableBuilder` splits the per-customer feature families
(F1 BSS, F2 CS, F3 PS) across N hash shards of the customer id and builds
each shard's block in parallel over an
:class:`~repro.dataplat.executor.ExecutorBackend`.  The split reuses the
:func:`~repro.dataplat.sharding.shard_of` partitioner, so the feature
layer and the :class:`~repro.dataplat.sharding.ShardedCatalog` agree on
where a customer lives.

The decomposition is exact, not approximate: F1..F3 are per-imsi SQL
(every GROUP BY and join key is ``imsi``), so filtering each raw table to
one shard's customers and running the unchanged family query yields
exactly the rows the full-table query would produce for those customers.
Gathering concatenates the shard blocks and restores global imsi order —
the result is bit-identical to the single-process
:class:`~repro.features.widetable.WideTableBuilder`.

The world-coupled families stay central: F4..F6 walk the social graphs
(a customer's features depend on neighbours on *other* shards), and F7..F9
need extractors fitted on training months.  An embedded central builder
builds them and assembles the wide table from the gathered shard blocks.
"""

from __future__ import annotations

import numpy as np

from ..datagen.simulator import TelcoWorld
from ..dataplat.executor import ExecutorBackend, map_traced, resolve_backend
from ..dataplat.observability import get_metrics, span
from ..dataplat.sharding import shard_of
from ..errors import FeatureError
from .spec import FeatureMatrix
from .widetable import WideTableBuilder

#: Families whose queries key every group-by and join on ``imsi`` — safe
#: to build shard-local with zero data movement.
SHARDED_CATEGORIES = ("F1", "F2", "F3")


class _ShardSource:
    """Month-table source restricted to one shard's customers.

    Every simulator table carries an ``imsi`` column; rows whose customer
    hashes elsewhere are masked out, preserving row order within the shard
    so downstream aggregates see the same per-customer row sequence as the
    unsharded build.
    """

    def __init__(self, world: TelcoWorld, shard_id: int, num_shards: int):
        self._world = world
        self._shard_id = int(shard_id)
        self._num_shards = int(num_shards)

    def __call__(self, month: int) -> dict:
        out = {}
        for name, table in self._world.month(month).tables.items():
            if "imsi" in table.schema.names:
                codes = shard_of(table.column("imsi"), self._num_shards)
                table = table.mask(codes == self._shard_id)
            out[name] = table
        return out


def _build_shard_blocks(world: TelcoWorld, args):
    """Build one shard's slice of the requested families (worker body).

    Top-level for picklability.  The world is the
    :meth:`~repro.dataplat.executor.ExecutorBackend.map_resident` resident
    — process workers inherit it at fork, a task carries only the builder
    settings — and the spans root at ``shard.widetable`` tagged with the
    shard id, so a trace of the fan-out shows per-shard skew directly.
    """
    month, categories, shard_id, num_shards = args
    builder = WideTableBuilder(
        world, table_source=_ShardSource(world, shard_id, num_shards)
    )
    with span("shard.widetable", shard=shard_id, month=month) as sp:
        blocks = {c: builder.category(c, month) for c in categories}
        sp.incr("rows", sum(len(b.imsi) for b in blocks.values()))
    return blocks


def _gather_block(parts: list[FeatureMatrix]) -> FeatureMatrix:
    """Concatenate shard blocks and restore global imsi order.

    Each family query ends ``ORDER BY imsi``, so shard blocks arrive
    internally sorted; a stable argsort over the concatenated (unique)
    imsi column reproduces exactly the row order of the unsharded build.
    """
    names = list(parts[0].names)
    for part in parts[1:]:
        if list(part.names) != names:
            raise FeatureError(
                "shard blocks disagree on feature columns; "
                "cannot gather a consistent wide table"
            )
    imsi = np.concatenate([p.imsi for p in parts])
    values = np.vstack([p.values for p in parts])
    order = np.argsort(imsi, kind="stable")
    return FeatureMatrix(imsi[order], names, values[order])


class ShardedWideTableBuilder:
    """A month's wide table with F1..F3 fanned across shards.

    Parameters
    ----------
    world:
        The simulated history.
    num_shards:
        Hash-shard count for the per-customer families.
    backend:
        :class:`~repro.dataplat.executor.ExecutorBackend` (or name) the
        shard tasks run on; default resolves like the widetable prefetch.
    """

    def __init__(
        self,
        world: TelcoWorld,
        num_shards: int,
        backend: "ExecutorBackend | str | None" = None,
    ) -> None:
        if num_shards < 1:
            raise FeatureError(f"num_shards must be >= 1, got {num_shards}")
        self._world = world
        self._num_shards = int(num_shards)
        self._backend = resolve_backend(backend)
        self._central = WideTableBuilder(world)

    def features(
        self, month: int, categories: "tuple[str, ...] | list[str]"
    ) -> FeatureMatrix:
        """The month's wide table; per-customer families build sharded.

        F1..F3 blocks not yet built are scattered across the shards,
        gathered and seeded into the central builder's cache; the central
        builder then builds the other families and assembles the table.
        """
        missing = tuple(
            c for c in dict.fromkeys(categories)
            if c in SHARDED_CATEGORIES and (c, month) not in self._central._cache
        )
        if missing:
            self._scatter(month, missing)
        return self._central.features(month, categories)

    def _scatter(self, month: int, categories: tuple[str, ...]) -> None:
        """Build ``categories`` of ``month`` per shard and gather them."""
        tasks = [
            (month, categories, shard_id, self._num_shards)
            for shard_id in range(self._num_shards)
        ]
        with span(
            "shard.features",
            month=month,
            shards=self._num_shards,
            backend=self._backend.name,
        ):
            # The world never changes after simulation: a constant stamp.
            per_shard = map_traced(
                self._backend, _build_shard_blocks, self._world, 0, tasks
            )
            metrics = get_metrics()
            metrics.counter("shard.widetable_tasks").inc(len(tasks))
            for category in categories:
                block = _gather_block([b[category] for b in per_shard])
                metrics.counter("shard.widetable_rows").inc(len(block.imsi))
                self._central._cache[(category, month)] = block
