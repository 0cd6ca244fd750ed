"""Columnar block format v2: per-column chunks, zone maps, scan pruning.

A whole-table file forces every read to decode every column of every
partition before projection or selection can happen, so v2 stores **one
addressable chunk per column per partition**:

* string columns are dictionary-encoded (sorted unique values + integer
  codes),
* bool columns are bit-packed,
* int/float columns — and dictionary codes — are little-endian values at
  the narrowest width that restores every bit (8 bytes when none does),
* any chunk body is zlib-compressed when that actually shrinks it.

Each chunk carries a **zone map** — ``count`` / ``null_count`` / ``min`` /
``max`` computed at encode time — written into a per-partition JSON
manifest.  A scan with pushed-down conjuncts consults the zone maps and
skips whole partitions whose chunks *provably* contain no matching row.
Pruning may only ever **skip**, never filter: a kept partition is returned
in full and the residual predicate is re-evaluated above the scan, so a
zone-map false positive costs time, never correctness.

Every catalog partition is a ``*.v2m`` manifest decoded through this
module; recovery and fsck report a stray ``*.npz`` (the retired v1
whole-table codec) as foreign input and leave it in place.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import StorageError
from .schema import Column, ColumnType, Schema

#: Current chunked format version (v1 was the retired whole-table npz codec).
FORMAT_VERSION = 2

#: Path suffix of a v2 partition manifest in the block store.
MANIFEST_SUFFIX = ".v2m"

#: Path suffix of one column chunk.
CHUNK_SUFFIX = ".chunk"

#: Compress a chunk body only when zlib shrinks it below this fraction —
#: incompressible numeric data then skips the decompress on every read.
_COMPRESS_RATIO = 0.9


def array_nbytes(arr: np.ndarray) -> int:
    """Decoded size of one column array, string payload included.

    Mirrors :attr:`Table.nbytes` accounting so chunk-level cache budgeting
    bills object columns for their characters, not 8 bytes per pointer.
    """
    total = arr.nbytes
    if arr.dtype.kind == "O":
        total += sum(len(str(v)) for v in arr)
    return total


def chunk_dir(manifest_path: str) -> str:
    """The directory holding a manifest's column chunks (trailing slash)."""
    if not manifest_path.endswith(MANIFEST_SUFFIX):
        raise StorageError(f"not a v2 manifest path: {manifest_path!r}")
    return manifest_path[: -len(MANIFEST_SUFFIX)] + "/"


# ----------------------------------------------------------------------
# Zone maps
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ZoneMap:
    """Per-chunk statistics: row count, null count, min/max of non-nulls.

    ``min``/``max`` are ``None`` when the chunk has no non-null value
    (empty, or all-NaN float).  Only NaN counts as null — the platform has
    no other null representation.  ``distinct`` is the exact number of
    distinct non-null values at encode time (``None`` on manifests written
    before the binder existed); the cost-based optimizer sums it across
    partitions as a cardinality upper bound.
    """

    count: int
    null_count: int
    min: Any = None
    max: Any = None
    distinct: int | None = None

    def to_dict(self) -> dict:
        out = {
            "count": self.count,
            "null_count": self.null_count,
            "min": self.min,
            "max": self.max,
        }
        if self.distinct is not None:
            out["distinct"] = self.distinct
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ZoneMap":
        distinct = data.get("distinct")
        return cls(
            count=int(data["count"]),
            null_count=int(data["null_count"]),
            min=data.get("min"),
            max=data.get("max"),
            distinct=None if distinct is None else int(distinct),
        )


def _comparable(bound, value) -> bool:
    """Whether a zone bound and a predicate literal order consistently."""
    bound_str = isinstance(bound, str)
    value_str = isinstance(value, str)
    return bound_str == value_str


@dataclass(frozen=True)
class ScanPredicate:
    """One pushed-down conjunct a zone map can be tested against.

    ``op`` is one of ``= <> < <= > >= in isnull notnull``; for ``in``,
    ``value`` is a tuple of literals, for ``isnull``/``notnull`` it is
    ignored.  These describe the *storage-level* view of a SQL conjunct —
    the full SQL predicate is still evaluated post-scan.
    """

    column: str
    op: str
    value: Any = None


def zone_allows(zone: ZoneMap, pred: ScanPredicate) -> bool:
    """Whether a chunk with ``zone`` *may* contain a row matching ``pred``.

    Conservative by construction: any doubt (type mismatch, unknown
    operator, missing stats) returns True.  False means *provably empty*,
    which is the only case pruning is allowed to act on.
    """
    if zone.count == 0:
        return False
    if pred.op == "isnull":
        # Only float NaN is null; int/string/bool chunks record null_count 0
        # and IS NULL over them is vacuously false, so pruning them is exact.
        return zone.null_count > 0
    if pred.op == "notnull":
        return zone.count - zone.null_count > 0
    lo, hi = zone.min, zone.max
    if pred.op == "<>":
        # NaN != literal is True under numpy semantics, so any null row
        # matches; otherwise only a constant chunk equal to the literal
        # can be skipped.
        if zone.null_count > 0:
            return True
        return not (lo == hi == pred.value)
    if lo is None or hi is None:
        # Only nulls remain, and NaN fails every ordered comparison.
        return False
    try:
        if pred.op == "in":
            return any(
                not _comparable(lo, item) or lo <= item <= hi
                for item in pred.value
            )
        if not _comparable(lo, pred.value):
            return True
        if pred.op == "=":
            return lo <= pred.value <= hi
        if pred.op == "<":
            return lo < pred.value
        if pred.op == "<=":
            return lo <= pred.value
        if pred.op == ">":
            return hi > pred.value
        if pred.op == ">=":
            return hi >= pred.value
    except TypeError:
        return True
    return True


# ----------------------------------------------------------------------
# Column chunk codec
# ----------------------------------------------------------------------


def _json_scalar(value):
    """A zone-map bound as a JSON-serializable python scalar."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def _maybe_compress(body: bytes) -> tuple[bytes, bool]:
    packed = zlib.compress(body, 1)
    if len(packed) < len(body) * _COMPRESS_RATIO:
        return packed, True
    return body, False


def _narrowest(values: np.ndarray) -> tuple[str, bytes]:
    """``(dtype, body)`` of the narrowest lossless layout of ``values``.

    ``values`` is int64 or float64.  The body is a little-endian integer
    array of the first of ``u1 i1 u2 i2 u4 i4`` that holds ``[min, max]``
    when ``np.frombuffer(body, dtype).astype(values.dtype)`` restores every
    bit, else the 8-byte values themselves.  A float column qualifies only
    when the int32-range test and the bit comparison both pass, which NaN,
    ±inf, ``-0.0`` and non-integral values fail before anything is cast.
    """
    if len(values):
        lo, hi = values.min(), values.max()
        ints = values
        if values.dtype.kind == "f" and -(2**31) <= lo and hi < 2**31:
            ints = values.astype(np.int64)
            if not np.array_equal(
                ints.astype(np.float64).view(np.uint64), values.view(np.uint64)
            ):
                ints = values
        if ints.dtype.kind == "i":
            for dtype in ("<u1", "<i1", "<u2", "<i2", "<u4", "<i4"):
                info = np.iinfo(dtype)
                if info.min <= lo and hi <= info.max:
                    return dtype, ints.astype(dtype).tobytes()
    return values.dtype.str, values.tobytes()


def encode_column(column: Column, arr: np.ndarray) -> tuple[bytes, ZoneMap]:
    """Encode one column into a self-describing chunk payload + zone map."""
    n = len(arr)
    header: dict[str, Any] = {"ctype": column.ctype.value, "rows": n}
    if column.ctype is ColumnType.STRING:
        strings = np.asarray([str(v) for v in arr.tolist()], dtype=object)
        if n:
            uniq, codes = np.unique(strings, return_inverse=True)
            values = [str(v) for v in uniq.tolist()]
            header["dtype"], body = _narrowest(codes.astype(np.int64, copy=False))
            zone = ZoneMap(n, 0, values[0], values[-1], distinct=len(values))
        else:
            values, body, zone = [], b"", ZoneMap(0, 0, distinct=0)
        header["enc"] = "dict"
        header["dict"] = values
    elif column.ctype is ColumnType.BOOL:
        bools = np.asarray(arr, dtype=bool)
        body = np.packbits(bools).tobytes()
        header["enc"] = "bitpack"
        zone = ZoneMap(
            n,
            0,
            int(bools.min()) if n else None,
            int(bools.max()) if n else None,
            distinct=len(np.unique(bools)) if n else 0,
        )
    else:
        dtype = "<i8" if column.ctype is ColumnType.INT else "<f8"
        numeric = np.asarray(arr)
        header["enc"] = "raw"
        header["dtype"], body = _narrowest(numeric.astype(dtype, copy=False))
        if column.ctype is ColumnType.FLOAT:
            nulls = int(np.isnan(numeric).sum())
            if n - nulls:
                present = numeric[~np.isnan(numeric)] if nulls else numeric
                zone = ZoneMap(
                    n,
                    nulls,
                    _json_scalar(present.min()),
                    _json_scalar(present.max()),
                    distinct=len(np.unique(present)),
                )
            else:
                zone = ZoneMap(n, nulls, distinct=0)
        else:
            zone = ZoneMap(
                n,
                0,
                int(numeric.min()) if n else None,
                int(numeric.max()) if n else None,
                distinct=len(np.unique(numeric)) if n else 0,
            )
    body, compressed = _maybe_compress(body)
    header["comp"] = compressed
    payload = json.dumps(header).encode("utf-8") + b"\n" + body
    return payload, zone


def decode_column(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_column`."""
    split = payload.index(b"\n")
    header = json.loads(payload[:split].decode("utf-8"))
    body = payload[split + 1 :]
    if header.get("comp"):
        body = zlib.decompress(body)
    rows = int(header["rows"])
    enc = header["enc"]
    if enc == "dict":
        values = np.asarray(header["dict"], dtype=object)
        if rows == 0:
            return np.empty(0, dtype=object)
        # Chunks written before codes were narrowed carry no dtype: int32.
        return values[np.frombuffer(body, dtype=header.get("dtype", "<i4"))]
    if enc == "bitpack":
        bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8), count=rows)
        return bits.astype(bool)
    if enc == "raw":
        # ``dtype`` is the stored width (8-byte values, or a narrower
        # lossless integer layout); astype widens it back and copies, so
        # the result is writable like a v1 npz array.
        return np.frombuffer(body, dtype=header["dtype"]).astype(
            ColumnType(header["ctype"]).dtype
        )
    raise StorageError(f"unknown chunk encoding {enc!r}")


# ----------------------------------------------------------------------
# Partition manifests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkMeta:
    """Manifest entry for one column chunk."""

    name: str
    ctype: str
    path: str
    encoded_bytes: int
    decoded_bytes: int
    zone: ZoneMap

    @property
    def column(self) -> Column:
        return Column(self.name, ColumnType(self.ctype))


@dataclass(frozen=True)
class PartitionManifest:
    """Everything a scan needs to know about one v2 partition.

    ``database``/``table``/``partition`` record the catalog identity the
    manifest was written under.  Registration paths mangle partition specs
    lossily (``month=3`` → ``month_3``), so these fields are what recovery
    and fsck use to re-register a partition found on storage when the
    journal that created it is gone.  They are optional for backward
    compatibility with manifests written before the journal existed.
    """

    rows: int
    chunks: tuple[ChunkMeta, ...]
    database: str | None = None
    table: str | None = None
    partition: str | None = None

    @property
    def identity(self) -> tuple[str, str, str] | None:
        """``(database, table, partition)`` when fully recorded, else None."""
        if self.database is None or self.table is None or self.partition is None:
            return None
        return (self.database, self.table, self.partition)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_name", {c.name: c for c in self.chunks}
        )

    def chunk(self, name: str) -> ChunkMeta | None:
        return self._by_name.get(name)

    @property
    def schema(self) -> Schema:
        return Schema(c.column for c in self.chunks)

    def to_bytes(self) -> bytes:
        doc = {
            "format": FORMAT_VERSION,
            "rows": self.rows,
            "columns": [
                {
                    "name": c.name,
                    "ctype": c.ctype,
                    "path": c.path,
                    "encoded_bytes": c.encoded_bytes,
                    "decoded_bytes": c.decoded_bytes,
                    "zone": c.zone.to_dict(),
                }
                for c in self.chunks
            ],
        }
        if self.identity is not None:
            doc["identity"] = {
                "database": self.database,
                "table": self.table,
                "partition": self.partition,
            }
        return json.dumps(doc).encode("utf-8")

    @classmethod
    def from_bytes(cls, payload: bytes) -> "PartitionManifest":
        doc = json.loads(payload.decode("utf-8"))
        version = doc.get("format")
        if version != FORMAT_VERSION:
            raise StorageError(
                f"unsupported columnar format version {version!r} "
                f"(this build reads v{FORMAT_VERSION})"
            )
        chunks = tuple(
            ChunkMeta(
                name=c["name"],
                ctype=c["ctype"],
                path=c["path"],
                encoded_bytes=int(c["encoded_bytes"]),
                decoded_bytes=int(c["decoded_bytes"]),
                zone=ZoneMap.from_dict(c["zone"]),
            )
            for c in doc["columns"]
        )
        identity = doc.get("identity", {})
        return cls(
            rows=int(doc["rows"]),
            chunks=chunks,
            database=identity.get("database"),
            table=identity.get("table"),
            partition=identity.get("partition"),
        )


def manifest_allows(
    manifest: PartitionManifest, predicates: list[ScanPredicate]
) -> bool:
    """Whether a partition may hold rows satisfying *all* ``predicates``.

    Conjuncts over columns the manifest does not know (projection renames,
    computed columns) cannot prune.  One provably-empty conjunct is enough
    to skip the partition, since conjuncts are AND-ed.
    """
    for pred in predicates:
        meta = manifest.chunk(pred.column)
        if meta is None:
            continue
        if not zone_allows(meta.zone, pred):
            return False
    return True


# ----------------------------------------------------------------------
# Table statistics (binder / cost-based optimizer surface)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnStats:
    """Aggregated statistics for one column of one table.

    ``distinct`` is an estimate (exact for temp views, a cross-partition
    upper bound for persisted v2 tables, ``None`` when unknown).  Bounds
    follow zone-map semantics: ``min``/``max`` cover non-null values only
    and only float NaN counts as null.
    """

    rows: int
    nulls: int
    min: Any = None
    max: Any = None
    distinct: float | None = None

    @property
    def null_fraction(self) -> float:
        return self.nulls / self.rows if self.rows else 0.0


@dataclass(frozen=True)
class TableStats:
    """Row count plus per-column stats, as the binder consumes them.

    ``exact`` distinguishes stats computed from a whole in-memory table
    (temp views) from zone-map rollups, whose distinct counts can only
    over-count across partitions.
    """

    rows: int
    columns: dict[str, ColumnStats]
    exact: bool = False

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)


def column_stats_from_array(arr: np.ndarray) -> ColumnStats:
    """Exact :class:`ColumnStats` for one in-memory column."""
    n = len(arr)
    if n == 0:
        return ColumnStats(0, 0, distinct=0.0)
    values = np.asarray(arr)
    if values.dtype.kind == "f":
        nan = np.isnan(values)
        nulls = int(nan.sum())
        present = values[~nan] if nulls else values
        if not len(present):
            return ColumnStats(n, nulls, distinct=0.0)
        return ColumnStats(
            n,
            nulls,
            _json_scalar(present.min()),
            _json_scalar(present.max()),
            distinct=float(len(np.unique(present))),
        )
    if values.dtype.kind == "O":
        strings = np.asarray([str(v) for v in values.tolist()], dtype=object)
        uniq = np.unique(strings)
        return ColumnStats(
            n, 0, str(uniq[0]), str(uniq[-1]), distinct=float(len(uniq))
        )
    return ColumnStats(
        n,
        0,
        _json_scalar(values.min()),
        _json_scalar(values.max()),
        distinct=float(len(np.unique(values))),
    )


def _combine_bounds(a, b, pick):
    if a is None:
        return b
    if b is None:
        return a
    if not _comparable(a, b):
        return None
    return pick(a, b)


def rollup_table_stats(manifests: list[PartitionManifest]) -> TableStats:
    """Fold per-partition zone maps into whole-table column statistics.

    Distinct counts sum across partitions (an upper bound — partitions can
    share values), additionally capped by the integer value span and the
    non-null row count.  A column missing ``distinct`` in any partition
    (pre-binder manifest) reports ``distinct=None``.
    """
    rows = sum(m.rows for m in manifests)
    names: list[str] = []
    for manifest in manifests:
        for chunk in manifest.chunks:
            if chunk.name not in names:
                names.append(chunk.name)
    columns: dict[str, ColumnStats] = {}
    for name in names:
        count = nulls = 0
        lo = hi = None
        distinct: float | None = 0.0
        for manifest in manifests:
            chunk = manifest.chunk(name)
            if chunk is None:
                continue
            zone = chunk.zone
            count += zone.count
            nulls += zone.null_count
            lo = _combine_bounds(lo, zone.min, min)
            hi = _combine_bounds(hi, zone.max, max)
            if distinct is not None and zone.distinct is not None:
                distinct += zone.distinct
            else:
                distinct = None
        if distinct is not None:
            distinct = min(distinct, float(count - nulls))
            if (
                isinstance(lo, (int, np.integer))
                and isinstance(hi, (int, np.integer))
            ):
                distinct = min(distinct, float(hi - lo + 1))
        columns[name] = ColumnStats(count, nulls, lo, hi, distinct=distinct)
    return TableStats(rows=rows, columns=columns, exact=False)
