"""Online feature store: snapshot materialization + point lookups.

The batch side of the platform produces wide-table
:class:`~repro.features.spec.FeatureMatrix` snapshots; the serving side
needs cheap point lookups by customer id.  The store bridges the two:

* :meth:`FeatureStore.materialize` sorts a snapshot by ``imsi`` and saves
  it as a handful of contiguous-id-range partitions ("buckets") in the
  catalog.  Because the buckets cover disjoint id ranges, each bucket's
  ``imsi`` zone map is disjoint too, and a point lookup's ``in``
  predicate lets :meth:`~repro.dataplat.catalog.Catalog.scan` prune every
  bucket that cannot hold a requested id — the point-lookup path is the
  same zone-map machinery the analytical scans use, not a parallel
  keyed index.
* :meth:`FeatureStore.lookup` serves a batch of ids from an LRU row cache
  first, fetching only the misses through a pruned scan.  Transient
  block-store faults are absorbed by a :class:`RetryPolicy`; a fetch that
  still fails raises, and the scoring service turns that into a
  ``failed`` outcome rather than a crash.

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


@dataclass(frozen=True)
class SnapshotInfo:
    """What the store knows about one materialized snapshot."""

    name: str
    table: str
    feature_names: tuple[str, ...]
    n_rows: int
    buckets: int


class FeatureStore:
    """Snapshot materializer + cached point-lookup reader.

    Parameters
    ----------
    catalog:
        Backing catalog; a fresh in-memory one when omitted.
    database:
        Catalog database snapshots land in (created if missing).
    cache_rows:
        LRU row-cache capacity in customer rows; ``0`` disables caching
        (every lookup hits storage — the chaos tests use this to keep the
        fault-injected read path hot).
    retry_policy:
        Backoff schedule for transient scan failures; ``None`` scans once.
    clock:
        Simulated clock charged for retry backoff sleeps.
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        database: str = SERVE_DATABASE,
        cache_rows: int = 8192,
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
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._snapshots: dict[str, SnapshotInfo] = {}
        self._active: SnapshotInfo | None = None

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
        zone maps tile the id space without overlap.  The new snapshot
        becomes the active one and the row cache is invalidated (cached
        rows belong to the previous snapshot).
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
        table = f"features_{snapshot}"
        with span(
            "serve.store.materialize",
            snapshot=snapshot,
            rows=int(len(ids)),
            buckets=buckets,
        ):
            for b, idx in enumerate(np.array_split(np.arange(len(ids)), buckets)):
                cols: dict[str, np.ndarray] = {"imsi": ids[idx]}
                for j, name in enumerate(matrix.names):
                    cols[name] = values[idx, j]
                self._catalog.save(
                    Table.from_arrays(**cols),
                    table,
                    database=self._database,
                    partition=f"bucket={b:04d}",
                )
        info = SnapshotInfo(
            name=snapshot,
            table=table,
            feature_names=tuple(matrix.names),
            n_rows=int(len(ids)),
            buckets=buckets,
        )
        self._snapshots[snapshot] = info
        self._active = info
        self._cache.clear()
        get_metrics().counter("serve.store.materialized_rows").inc(len(ids))
        return info

    def attach(self, snapshot: str) -> SnapshotInfo:
        """Make a previously materialized snapshot the active one.

        Snapshots materialized by another process are rediscovered from
        the catalog's schema metadata (feature order is the saved column
        order minus ``imsi``).
        """
        info = self._snapshots.get(snapshot)
        if info is None:
            table = f"features_{snapshot}"
            if not self._catalog.exists(table, self._database):
                raise ServeError(f"unknown snapshot {snapshot!r}")
            tinfo = self._catalog.info(table, self._database)
            names = tuple(n for n in tinfo.schema.names if n != "imsi")
            n_rows = int(
                self._catalog.scan(
                    table, self._database, columns=["imsi"]
                ).num_rows
            )
            info = SnapshotInfo(
                name=snapshot,
                table=table,
                feature_names=names,
                n_rows=n_rows,
                buckets=len(tinfo.partitions),
            )
            self._snapshots[snapshot] = info
        if self._active is not info:
            self._cache.clear()
        self._active = info
        return info

    def lookup(self, customer_ids) -> np.ndarray:
        """Feature rows for ``customer_ids``, in request order.

        Returns an ``(n, n_features)`` float64 matrix.  Unknown ids raise
        :class:`ServeError`; transient storage faults that survive the
        retry schedule propagate as :class:`TransientError` for the
        caller's admission control to absorb.
        """
        info = self._require_active()
        cids = np.asarray(customer_ids, dtype=np.int64)
        metrics = get_metrics()
        rows: dict[int, np.ndarray] = {}
        need: list[int] = []
        with span(
            "serve.store.lookup", snapshot=info.name, rows=int(len(cids))
        ) as sp:
            for cid in dict.fromkeys(cids.tolist()):
                row = self._cache.get(cid)
                if row is not None:
                    self._cache.move_to_end(cid)
                    rows[cid] = row
                else:
                    need.append(cid)
            hits = len(rows)
            if need:
                rows.update(self._fetch(info, need))
            metrics.counter("serve.store.hits").inc(hits)
            metrics.counter("serve.store.misses").inc(len(need))
            sp.incr("cache_hits", hits)
            sp.incr("cache_misses", len(need))
            out = np.empty((len(cids), len(info.feature_names)), dtype=np.float64)
            for i, cid in enumerate(cids.tolist()):
                out[i] = rows[cid]
        return out

    def _fetch(
        self, info: SnapshotInfo, need: list[int]
    ) -> dict[int, np.ndarray]:
        """Read the missing rows through a zone-map-pruned scan."""
        predicate = [ScanPredicate("imsi", "in", tuple(int(c) for c in need))]

        def read() -> Table:
            return self._catalog.scan(
                info.table, self._database, predicate=predicate
            )

        if self._retry is not None:
            piece = self._retry.call(read, clock=self._clock)
        else:
            piece = read()
        scan_ids = piece.column("imsi")
        wanted = np.asarray(need, dtype=np.int64)
        if len(scan_ids) == 0:
            raise ServeError(
                f"unknown customer ids in snapshot {info.name!r}: "
                f"{sorted(int(m) for m in wanted)[:10]}"
            )
        pos = np.searchsorted(scan_ids, wanted)
        clipped = np.minimum(pos, len(scan_ids) - 1)
        ok = (pos < len(scan_ids)) & (scan_ids[clipped] == wanted)
        if not ok.all():
            missing = wanted[~ok]
            raise ServeError(
                f"unknown customer ids in snapshot {info.name!r}: "
                f"{sorted(int(m) for m in missing)[:10]}"
            )
        if info.feature_names:
            mat = np.column_stack(
                [piece.column(n) for n in info.feature_names]
            ).astype(np.float64, copy=False)
        else:
            mat = np.empty((piece.num_rows, 0), dtype=np.float64)
        fetched: dict[int, np.ndarray] = {}
        for cid, p in zip(need, pos.tolist()):
            row = mat[p].copy()
            fetched[cid] = row
            if self._cache_rows:
                self._cache[cid] = row
                self._cache.move_to_end(cid)
                while len(self._cache) > self._cache_rows:
                    self._cache.popitem(last=False)
                    get_metrics().counter("serve.store.evictions").inc()
        get_metrics().counter("serve.store.rows_fetched").inc(len(need))
        return fetched

    def _require_active(self) -> SnapshotInfo:
        if self._active is None:
            raise ServeError(
                "no active snapshot; call materialize() or attach() first"
            )
        return self._active
