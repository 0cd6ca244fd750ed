"""Online feature store: snapshot materialization + point lookups.

The batch side of the platform produces wide-table
:class:`~repro.features.spec.FeatureMatrix` snapshots; the serving side
needs cheap point lookups by customer id.  The store bridges the two:

* :meth:`FeatureStore.materialize` sorts a snapshot by ``imsi`` and saves
  it as a handful of contiguous-id-range partitions ("buckets") in the
  catalog, remembering each bucket's first id (:attr:`SnapshotInfo.bounds`).
  Because the buckets cover disjoint id ranges, each bucket's ``imsi``
  zone map is disjoint too, and a fetch's ``in`` predicate lets
  :meth:`~repro.dataplat.catalog.Catalog.scan` prune every bucket that
  cannot hold a requested id — the fetch path is the same zone-map
  machinery the analytical scans use, not a parallel keyed index.
* :meth:`FeatureStore.lookup` keeps recently used buckets **resident**
  in one id-sorted index (``int64`` ids + a ``(rows, F)`` float64 matrix,
  a slice per bucket), rebuilt only when the resident set changes.  A
  lookup probes it with one ``searchsorted``, a take and an equality
  check and gathers in one take; only the ids it misses are routed to
  buckets, fetched in one pruned scan and admitted.  Transient
  block-store faults are absorbed by a :class:`RetryPolicy`; a fetch
  that still fails raises, and the scoring service turns that into a
  ``failed`` outcome rather than a crash.
* The index is dropped whenever the block store reports a write or
  delete under the snapshot's table directory, so a snapshot rewritten
  through the same catalog (by this store or another) is never served
  half old, half new.

Float64 feature chunks go through the catalog's lossless column codec
(8-byte ``<f8`` bodies, or a narrower integer layout only where every bit
survives the round trip), so a row read back for online scoring is
bit-identical to the in-memory matrix the batch path scores — by
construction in the codec, and the parity tests pin it down.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..dataplat.catalog import Catalog
from ..dataplat.columnar import ScanPredicate
from ..dataplat.observability import get_metrics, span
from ..dataplat.resilience import RetryPolicy, SimClock
from ..dataplat.table import Table
from ..errors import ServeError
from ..features.spec import FeatureMatrix

#: Database the store materializes snapshots into.
SERVE_DATABASE = "serve"

_TABLE_PREFIX = "features_"


@dataclass(frozen=True)
class SnapshotInfo:
    """What the store knows about one materialized snapshot."""

    name: str
    table: str
    feature_names: tuple[str, ...]
    n_rows: int
    buckets: int
    #: First customer id of each bucket, ascending: bucket ``b`` holds the
    #: ids in ``[bounds[b], bounds[b + 1])``.
    bounds: tuple[int, ...]


class FeatureStore:
    """Snapshot materializer + point-lookup reader over resident buckets.

    Parameters
    ----------
    catalog:
        Backing catalog; a fresh in-memory one when omitted.
    database:
        Catalog database snapshots land in (created if missing).
    cache_rows:
        Budget, in customer rows, for the buckets kept resident (LRU by
        bucket).  A bucket larger than the budget is never admitted, so
        ``0`` sends every lookup to storage — the chaos tests use this to
        keep the fault-injected read path hot.  A resident row costs
        ``8 * (F + 1)`` bytes, so the default 32 768 rows is ≈ 5.3 MiB at
        20 features.
    retry_policy:
        Backoff schedule for transient scan failures; ``None`` scans once.
    clock:
        Simulated clock charged for retry backoff sleeps.
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        database: str = SERVE_DATABASE,
        cache_rows: int = 32768,
        retry_policy: RetryPolicy | None = None,
        clock: SimClock | None = None,
    ) -> None:
        if cache_rows < 0:
            raise ServeError(f"cache_rows must be >= 0, got {cache_rows}")
        self._catalog = catalog if catalog is not None else Catalog()
        self._database = database
        self._catalog.create_database(database)
        self._cache_rows = int(cache_rows)
        self._retry = retry_policy
        self._clock = clock if clock is not None else SimClock()
        #: Resident buckets of the active snapshot as one id-sorted index:
        #: ``_ids`` and the matching rows of ``_rows``.  ``_slices`` maps
        #: each resident bucket to its slice of both, in LRU order.
        self._ids = np.empty(0, dtype=np.int64)
        self._rows = np.empty((0, 0))
        self._slices: OrderedDict[int, slice] = OrderedDict()
        self._snapshots: dict[str, SnapshotInfo] = {}
        self._active: SnapshotInfo | None = None
        self._bounds = np.empty(0, dtype=np.int64)
        #: Set when the active snapshot's files changed under us; the next
        #: lookup re-reads its layout from the catalog.
        self._stale = False
        self._listen()

    def __setstate__(self, state: dict) -> None:
        # The store does not pickle its listeners: listen to the copy.
        self.__dict__.update(state)
        self._listen()

    def _listen(self) -> None:
        # Held weakly by the store, so it never keeps this object (and its
        # resident index) alive.
        self._catalog.store.add_invalidation_listener(self._on_store_change)

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def active_snapshot(self) -> SnapshotInfo | None:
        return self._active

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._require_active().feature_names

    def materialize(
        self, matrix: FeatureMatrix, snapshot: str, buckets: int = 8
    ) -> SnapshotInfo:
        """Persist one feature snapshot as id-range-bucketed partitions.

        Rows are sorted by ``imsi`` and split into ``buckets`` contiguous
        ranges, one catalog partition each, so the per-partition ``imsi``
        zone maps tile the id space without overlap.  Buckets left over
        from an earlier, wider materialization of the same snapshot are
        dropped.  The new snapshot becomes the active one and no bucket
        is resident (the index belonged to the previous snapshot).
        """
        if not snapshot or any(ch in snapshot for ch in "/= "):
            raise ServeError(f"invalid snapshot name {snapshot!r}")
        if matrix.n_rows == 0:
            raise ServeError(f"snapshot {snapshot!r} has no rows")
        if buckets < 1:
            raise ServeError(f"buckets must be >= 1, got {buckets}")
        ids = matrix.imsi
        if len(np.unique(ids)) != len(ids):
            raise ServeError(
                f"snapshot {snapshot!r} has duplicate customer ids"
            )
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        values = matrix.values[order]
        buckets = min(int(buckets), len(ids))
        table = _TABLE_PREFIX + snapshot
        splits = np.array_split(np.arange(len(ids)), buckets)
        with span(
            "serve.store.materialize",
            snapshot=snapshot,
            rows=int(len(ids)),
            buckets=buckets,
        ):
            for b, idx in enumerate(splits):
                cols: dict[str, np.ndarray] = {"imsi": ids[idx]}
                for j, name in enumerate(matrix.names):
                    cols[name] = values[idx, j]
                self._catalog.save(
                    Table.from_arrays(**cols),
                    table,
                    database=self._database,
                    partition=f"bucket={b:04d}",
                )
            for leftover in self._catalog.partitions(table, self._database)[
                buckets:
            ]:
                self._catalog.drop_partition(table, leftover, self._database)
        info = SnapshotInfo(
            name=snapshot,
            table=table,
            feature_names=tuple(matrix.names),
            n_rows=int(len(ids)),
            buckets=buckets,
            bounds=tuple(int(ids[idx[0]]) for idx in splits),
        )
        self._snapshots[snapshot] = info
        self._activate(info)
        get_metrics().counter("serve.store.materialized_rows").inc(len(ids))
        return info

    def attach(self, snapshot: str) -> SnapshotInfo:
        """Make a previously materialized snapshot the active one.

        Snapshots materialized by another store are rediscovered from the
        catalog: feature order is the saved column order minus ``imsi``,
        and each bucket's bound is the first ``imsi`` of its partition.
        """
        info = self._snapshots.get(snapshot)
        if info is None:
            info = self._discover(snapshot)
            self._snapshots[snapshot] = info
        if self._active is not info:
            self._activate(info)
        return info

    def lookup(self, customer_ids) -> np.ndarray:
        """Feature rows for ``customer_ids``, in request order.

        Returns an ``(n, n_features)`` float64 matrix.  Unknown ids raise
        :class:`ServeError`; transient storage faults that survive the
        retry schedule propagate as :class:`TransientError` for the
        caller's admission control to absorb.  At most one catalog scan
        runs per call, and none when every touched bucket is resident.
        """
        info = self._require_active()
        cids = np.asarray(customer_ids, dtype=np.int64)
        n = len(cids)
        # Each id's bucket (-1 below the first bound).  Touched resident
        # buckets become the most recent, in bucket order; the others are
        # fetched.
        owner = self._bounds.searchsorted(cids, side="right") - 1
        touched = np.flatnonzero(np.bincount(owner + 1)[1:]).tolist()
        fetch: list[int] = []
        for b in touched:
            if b in self._slices:
                self._slices.move_to_end(b)
            else:
                fetch.append(b)
        with span(
            "serve.store.lookup",
            snapshot=info.name,
            rows=n,
            buckets=len(touched),
            buckets_fetched=len(fetch),
        ) as sp:
            found, out = _gather(self._ids, self._rows, cids)
            hits = int(np.count_nonzero(found))
            if hits < n:
                missing = np.flatnonzero(~found)
                want = cids[missing]
                piece = self._ids[:0], self._rows[:0]
                if fetch:
                    routed = np.isin(owner[missing], fetch)
                    piece = self._fetch(info, fetch, np.unique(want[routed]))
                # Ids in no resident or fetched bucket (or its gaps).
                known, rows = _gather(*piece, want)
                if not known.all():
                    unknown = np.unique(want[~known])
                    raise ServeError(
                        f"unknown customer ids in snapshot {info.name!r}: "
                        f"{unknown[:10].tolist()}"
                    )
                out[missing] = rows
            misses = n - hits
            metrics = get_metrics()
            metrics.counter("serve.store.hits").inc(hits)
            metrics.counter("serve.store.misses").inc(misses)
            sp.incr("cache_hits", hits)
            sp.incr("cache_misses", misses)
        return out

    def _fetch(
        self, info: SnapshotInfo, fetch: list[int], wanted: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read the buckets in ``fetch`` through one zone-map-pruned scan.

        Returns the scanned ``(ids, rows)``, id-sorted (a bucket whose
        zone map excludes every wanted id is pruned and absent), and
        admits each scanned bucket into the resident index.
        """
        predicate = [ScanPredicate("imsi", "in", tuple(wanted.tolist()))]

        def read() -> Table:
            return self._catalog.scan(
                info.table, self._database, predicate=predicate
            )

        if self._retry is not None:
            piece = self._retry.call(read, clock=self._clock)
        else:
            piece = read()
        # Scans return whole partitions in bucket order; cut at the bounds.
        ids = piece.column("imsi")
        rows = np.empty((len(ids), len(info.feature_names)), dtype=np.float64)
        for j, name in enumerate(info.feature_names):
            rows[:, j] = piece.column(name)
        edges = np.append(np.searchsorted(ids, self._bounds), len(ids)).tolist()
        self._admit(
            {
                b: (ids[edges[b] : edges[b + 1]], rows[edges[b] : edges[b + 1]])
                for b in fetch
                if edges[b] < edges[b + 1]
            }
        )
        get_metrics().counter("serve.store.rows_fetched").inc(piece.num_rows)
        return ids, rows

    def _admit(self, blocks: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
        """Make each bucket in ``blocks`` resident, in bucket order,
        evicting least-recently-used buckets to stay within ``cache_rows``;
        a bucket over budget is skipped.  Rebuilds the index once."""
        resident = {b: (self._ids[s], self._rows[s]) for b, s in self._slices.items()}
        size = len(self._ids)
        evictions = get_metrics().counter("serve.store.evictions")
        for b, block in blocks.items():
            if len(block[0]) > self._cache_rows:
                continue
            resident[b] = block
            self._slices[b] = slice(0)  # placed by _reindex
            size += len(block[0])
            while size > self._cache_rows:
                old, _ = self._slices.popitem(last=False)
                size -= len(resident.pop(old)[0])
                evictions.inc()
        if blocks:
            self._reindex(resident)

    def _reindex(self, resident: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
        """Concatenate ``resident`` (the buckets in ``_slices``) in bucket
        order, which is id order, into the index."""
        order = sorted(self._slices)
        edges = np.cumsum([0] + [len(resident[b][0]) for b in order]).tolist()
        for b, lo, hi in zip(order, edges, edges[1:]):
            self._slices[b] = slice(lo, hi)  # keeps its LRU position
        width = len(self._active.feature_names)
        self._ids = np.concatenate(
            [np.empty(0, dtype=np.int64)] + [resident[b][0] for b in order]
        )
        self._rows = np.concatenate(
            [np.empty((0, width))] + [resident[b][1] for b in order]
        )

    def _activate(self, info: SnapshotInfo) -> None:
        self._active = info
        self._bounds = np.asarray(info.bounds, dtype=np.int64)
        self._slices.clear()
        self._reindex({})
        self._stale = False

    def _discover(self, snapshot: str) -> SnapshotInfo:
        """Read a snapshot's layout back from the catalog."""
        table = _TABLE_PREFIX + snapshot
        if not self._catalog.exists(table, self._database):
            raise ServeError(f"unknown snapshot {snapshot!r}")
        tinfo = self._catalog.info(table, self._database)
        firsts: list[int] = []
        n_rows = 0
        for partition in tinfo.partitions:
            ids = self._catalog.load(
                table, self._database, partition=partition
            ).column("imsi")
            firsts.append(int(ids[0]))
            n_rows += len(ids)
        return SnapshotInfo(
            name=snapshot,
            table=table,
            feature_names=tuple(n for n in tinfo.schema.names if n != "imsi"),
            n_rows=n_rows,
            buckets=len(tinfo.partitions),
            bounds=tuple(firsts),
        )

    def _on_store_change(self, path: str) -> None:
        """Block-store invalidation hook: a file's bytes may have changed.

        A change under a snapshot's table directory forgets what this
        store memoized about that snapshot; for the active one it drops
        every resident bucket and re-reads the layout on the next lookup.
        """
        changed = [
            name
            for name, info in self._snapshots.items()
            if path.startswith(self._table_dir(info))
        ]
        for name in changed:
            del self._snapshots[name]
        active = self._active
        if active is not None and path.startswith(self._table_dir(active)):
            self._slices.clear()
            self._reindex({})
            self._stale = True

    def _table_dir(self, info: SnapshotInfo) -> str:
        return Catalog.table_dir(info.table, self._database)

    def _require_active(self) -> SnapshotInfo:
        if self._active is None:
            raise ServeError(
                "no active snapshot; call materialize() or attach() first"
            )
        if self._stale:
            info = self._discover(self._active.name)
            self._snapshots[info.name] = info
            self._activate(info)
        return self._active


def _gather(ids: np.ndarray, rows: np.ndarray, want: np.ndarray) -> tuple:
    """Which of ``want`` the id-sorted ``ids`` holds, and each one's row
    (arbitrary for absent ids)."""
    if not len(ids):
        return np.zeros(len(want), bool), np.empty((len(want), rows.shape[1]))
    pos = ids.searchsorted(want)
    return ids.take(pos, mode="clip") == want, rows.take(pos, axis=0, mode="clip")
