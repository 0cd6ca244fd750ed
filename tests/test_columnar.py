"""Columnar v2 format: chunk codec, zone maps, and catalog scan pruning."""

import json
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplat.blockstore import BlockStore
from repro.dataplat.catalog import Catalog
from repro.dataplat.columnar import (
    MANIFEST_SUFFIX,
    PartitionManifest,
    ScanPredicate,
    ZoneMap,
    chunk_dir,
    decode_column,
    encode_column,
    manifest_allows,
    zone_allows,
)
from repro.dataplat.schema import Column, ColumnType, Schema
from repro.dataplat.table import Table
from repro.errors import StorageError


def chunk_path(catalog: Catalog, column: str, table: str = "t") -> str:
    """Resolve a column's version-stamped chunk path via the manifest."""
    manifest_path = f"/warehouse/default/{table}/__all__" + MANIFEST_SUFFIX
    manifest = PartitionManifest.from_bytes(catalog.store.read(manifest_path))
    meta = manifest.chunk(column)
    assert meta is not None, f"no chunk for column {column!r}"
    return meta.path


class TestChunkCodec:
    @pytest.mark.parametrize(
        "ctype, arr",
        [
            ("int", np.arange(-50, 50, dtype=np.int64)),
            ("float", np.linspace(-2.0, 2.0, 64)),
            ("bool", np.array([True, False, True, True, False])),
            (
                "string",
                np.asarray(
                    ["alpha", "", "beta", "alpha", "gamma"], dtype=object
                ),
            ),
        ],
    )
    def test_round_trip(self, ctype, arr):
        col = Column("c", ColumnType(ctype))
        payload, zone = encode_column(col, arr)
        out = decode_column(payload)
        assert zone.count == len(arr)
        if ctype == "string":
            assert out.tolist() == [str(v) for v in arr.tolist()]
        else:
            assert np.array_equal(out, np.asarray(arr))

    def test_round_trip_empty(self):
        for ctype in ("int", "float", "bool", "string"):
            col = Column("c", ColumnType(ctype))
            dtype = {"string": object, "bool": bool}.get(ctype, np.float64)
            payload, zone = encode_column(col, np.empty(0, dtype=dtype))
            assert zone == ZoneMap(0, 0, distinct=0)
            assert len(decode_column(payload)) == 0

    def test_decoded_arrays_writable(self):
        col = Column("c", ColumnType.FLOAT)
        payload, _ = encode_column(col, np.ones(8))
        out = decode_column(payload)
        out[0] = 5.0  # frombuffer views are read-only; decode must copy

    def test_dictionary_shrinks_repetitive_strings(self):
        col = Column("c", ColumnType.STRING)
        arr = np.asarray(["longvaluehere"] * 1000, dtype=object)
        payload, _ = encode_column(col, arr)
        assert len(payload) < 1000  # codes compress; dict stored once

    def test_float_zone_ignores_nan(self):
        col = Column("c", ColumnType.FLOAT)
        _, zone = encode_column(col, np.array([np.nan, 2.0, -1.0, np.nan]))
        assert zone == ZoneMap(4, 2, -1.0, 2.0, distinct=2)

    def test_all_nan_zone_has_no_bounds(self):
        col = Column("c", ColumnType.FLOAT)
        _, zone = encode_column(col, np.array([np.nan, np.nan]))
        assert zone == ZoneMap(2, 2, None, None, distinct=0)

    def test_unknown_encoding_rejected(self):
        with pytest.raises(StorageError):
            decode_column(b'{"enc": "wat", "rows": 1, "comp": false}\n??')


def _header(payload: bytes) -> dict:
    return json.loads(payload[: payload.index(b"\n")])


def _bits(*patterns: int) -> list[float]:
    return np.asarray(patterns, dtype=np.uint64).view(np.float64).tolist()


_INT_EDGES = sorted(
    {
        sign * 2**k + d
        for k in (7, 8, 15, 16, 31, 32, 63)
        for sign in (1, -1)
        for d in (-1, 0, 1)
        if -(2**63) <= sign * 2**k + d < 2**63
    }
    | {0}
)
_FLOAT_EDGES = [
    *_bits(
        0x7FF8000000000000,  # default quiet NaN
        0x7FF8000000000001,  # NaN payloads must survive bit for bit
        0xFFF800000000BEEF,
        0x7FF4000000000000,
        0x0000000000000001,  # smallest subnormal
        0x800FFFFFFFFFFFFF,  # largest negative subnormal
    ),
    np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 0.5, 127.0, 128.0, 255.0, 256.0,
    -129.0, 65535.0, 65536.0, 2.0**31 - 1, 2.0**31, -(2.0**31), -(2.0**31) - 1,
    2.0**32, 2.0**53, 2.0**53 + 2, -(2.0**53), 1e300,
]  # fmt: skip
_ints = st.lists(
    st.sampled_from(_INT_EDGES) | st.integers(-(2**63), 2**63 - 1)
    | st.integers(-300, 300)
)  # fmt: skip
_floats = st.lists(
    st.sampled_from(_FLOAT_EDGES)
    | st.integers(-70000, 70000).map(float)
    | st.integers(0, 2**64 - 1).map(lambda b: _bits(b)[0])
)


class TestNarrowedCodec:
    """Numeric bodies are stored at the narrowest lossless width; every bit
    of every value must come back, with no numpy warning on the way."""

    @staticmethod
    def _check(ctype: ColumnType, arr: np.ndarray) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under ``python -W error``
            payload, zone = encode_column(Column("c", ctype), arr)
            out = decode_column(payload)
        assert out.dtype == arr.dtype and out.flags.writeable
        assert np.array_equal(out.view(np.uint64), arr.view(np.uint64))
        # Zone maps describe the input, whatever width the body took.
        present = [v for v in arr.tolist() if v == v]
        assert zone == ZoneMap(
            len(arr),
            len(arr) - len(present),
            min(present) if present else None,
            max(present) if present else None,
            distinct=len(set(present)),
        )
        assert type(zone.min) is type(zone.max)
        assert zone.min is None or type(zone.min) is type(arr.tolist()[0])

    @settings(max_examples=300, deadline=None)
    @given(_ints)
    def test_int_round_trip_is_bit_exact(self, values):
        self._check(ColumnType.INT, np.asarray(values, dtype=np.int64))

    @settings(max_examples=300, deadline=None)
    @given(_floats)
    def test_float_round_trip_is_bit_exact(self, values):
        self._check(ColumnType.FLOAT, np.asarray(values, dtype=np.float64))

    @pytest.mark.parametrize(
        "ctype, values, dtype",
        [
            ("int", [0, 255], "<u1"),
            ("int", [-128, 127], "<i1"),
            ("int", [0, 256], "<u2"),
            ("int", [-129, 0], "<i2"),
            ("int", [0, 65536], "<u4"),
            ("int", [-32769, 0], "<i4"),
            ("int", [-1, 2**31], "<i8"),
            ("int", [0, 2**32], "<i8"),
            ("int", [-(2**63), 2**63 - 1], "<i8"),
            ("int", [], "<i8"),
            ("float", [0.0, 3.0, 255.0], "<u1"),
            ("float", [-(2.0**31), 7.0], "<i4"),
            ("float", [2.0**31, 7.0], "<f8"),
            ("float", [1.0, -0.0], "<f8"),
            ("float", [1.0, 2.5], "<f8"),
            ("float", [1.0, np.nan], "<f8"),
            ("float", [1.0, np.inf], "<f8"),
            ("float", [], "<f8"),
            ("string", ["b", "a", "b"], "<u1"),
            ("string", [str(i) for i in range(300)], "<u2"),
        ],
    )
    def test_stored_width(self, ctype, values, dtype):
        arr = np.asarray(values, dtype=ColumnType(ctype).dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload, _ = encode_column(Column("c", ColumnType(ctype)), arr)
        header = _header(payload)
        assert header["dtype"] == dtype
        assert header["enc"] == ("dict" if ctype == "string" else "raw")
        assert np.array_equal(decode_column(payload), arr, equal_nan=ctype == "float")

    def test_narrow_body_is_smaller(self):
        wide = np.arange(0, 4000, dtype=np.int64) * 2**33
        small = np.arange(0, 4000, dtype=np.int64) % 200
        col = Column("c", ColumnType.INT)
        assert len(encode_column(col, small)[0]) * 4 < len(encode_column(col, wide)[0])

    @pytest.mark.parametrize(
        "header, arr",
        [
            ({"ctype": "int", "enc": "raw", "dtype": "<i8"}, np.arange(-40, 40)),
            (
                {"ctype": "float", "enc": "raw", "dtype": "<f8"},
                np.array([1.0, -0.0, np.nan, 4.0] * 20),
            ),
        ],
    )
    def test_legacy_eight_byte_chunks_still_decode(self, header, arr):
        # As written before narrowing: full-width body, zlib level 6.
        body = zlib.compress(arr.astype(header["dtype"]).tobytes(), 6)
        head = {**header, "rows": len(arr), "comp": True}
        out = decode_column(json.dumps(head).encode() + b"\n" + body)
        assert out.dtype == arr.dtype and out.flags.writeable
        assert np.array_equal(out.view(np.uint64), arr.view(np.uint64))

    def test_legacy_dictionary_chunk_has_int32_codes(self):
        head = {"ctype": "string", "rows": 3, "enc": "dict", "dict": ["a", "b"],
                "comp": False}  # fmt: skip
        body = np.asarray([1, 0, 1], dtype="<i4").tobytes()
        out = decode_column(json.dumps(head).encode() + b"\n" + body)
        assert out.tolist() == ["b", "a", "b"]


class TestZoneAllows:
    def test_empty_chunk_never_matches(self):
        zone = ZoneMap(0, 0)
        assert not zone_allows(zone, ScanPredicate("c", "=", 1))

    @pytest.mark.parametrize(
        "op, value, expected",
        [
            ("=", 5, True),
            ("=", 11, False),
            ("=", -1, False),
            ("<", 1, True),
            ("<", 0, False),
            ("<=", 0, True),
            (">", 9, True),
            (">", 10, False),
            (">=", 10, True),
            ("in", (11, 12), False),
            ("in", (11, 3), True),
        ],
    )
    def test_range_ops(self, op, value, expected):
        zone = ZoneMap(10, 0, 0, 10)  # values span [0, 10]
        assert zone_allows(zone, ScanPredicate("c", op, value)) is expected

    def test_not_equal_prunes_only_constant_chunks(self):
        constant = ZoneMap(5, 0, 3, 3)
        spread = ZoneMap(5, 0, 3, 7)
        assert not zone_allows(constant, ScanPredicate("c", "<>", 3))
        assert zone_allows(constant, ScanPredicate("c", "<>", 4))
        assert zone_allows(spread, ScanPredicate("c", "<>", 3))

    def test_not_equal_with_nulls_never_prunes(self):
        # NaN != literal is True under numpy, so null rows always match <>.
        zone = ZoneMap(5, 2, 3, 3)
        assert zone_allows(zone, ScanPredicate("c", "<>", 3))

    def test_all_null_chunk_fails_ordered_ops(self):
        zone = ZoneMap(4, 4, None, None)
        for op in ("=", "<", "<=", ">", ">="):
            assert not zone_allows(zone, ScanPredicate("c", op, 1))

    def test_type_mismatch_is_conservative(self):
        zone = ZoneMap(5, 0, "alpha", "beta")
        assert zone_allows(zone, ScanPredicate("c", "=", 3))
        assert zone_allows(zone, ScanPredicate("c", "in", (3, "alpha")))

    def test_string_bounds(self):
        zone = ZoneMap(5, 0, "beta", "delta")
        assert zone_allows(zone, ScanPredicate("c", "=", "cat"))
        assert not zone_allows(zone, ScanPredicate("c", "=", "zebra"))

    def test_is_null_prunes_by_null_count(self):
        no_nulls = ZoneMap(10, 0, 0, 9)
        some_nulls = ZoneMap(10, 3, 0, 9)
        assert not zone_allows(no_nulls, ScanPredicate("c", "isnull"))
        assert zone_allows(some_nulls, ScanPredicate("c", "isnull"))

    def test_is_not_null_prunes_all_null_chunks(self):
        all_null = ZoneMap(4, 4, None, None)
        some_nulls = ZoneMap(10, 3, 0, 9)
        assert not zone_allows(all_null, ScanPredicate("c", "notnull"))
        assert zone_allows(some_nulls, ScanPredicate("c", "notnull"))

    def test_null_ops_on_empty_chunk(self):
        empty = ZoneMap(0, 0)
        assert not zone_allows(empty, ScanPredicate("c", "isnull"))
        assert not zone_allows(empty, ScanPredicate("c", "notnull"))

    def test_distinct_survives_manifest_round_trip(self):
        zone = ZoneMap(10, 2, 0, 9, distinct=7)
        assert ZoneMap.from_dict(zone.to_dict()) == zone
        # Manifests written before the binder existed omit distinct.
        legacy = dict(zone.to_dict())
        legacy.pop("distinct")
        assert ZoneMap.from_dict(legacy).distinct is None

    def test_manifest_unknown_column_cannot_prune(self):
        catalog = Catalog()
        catalog.save(Table.from_arrays(x=np.arange(4)), "t")
        path = "/warehouse/default/t/__all__" + MANIFEST_SUFFIX
        manifest = PartitionManifest.from_bytes(catalog.store.read(path))
        assert manifest_allows(manifest, [ScanPredicate("nope", "=", 1)])
        assert not manifest_allows(manifest, [ScanPredicate("x", ">", 99)])


class TestManifest:
    def test_round_trip(self):
        catalog = Catalog()
        table = Table.from_arrays(
            a=np.arange(6), b=np.linspace(0, 1, 6)
        )
        catalog.save(table, "t")
        path = "/warehouse/default/t/__all__" + MANIFEST_SUFFIX
        manifest = PartitionManifest.from_bytes(catalog.store.read(path))
        round_tripped = PartitionManifest.from_bytes(manifest.to_bytes())
        assert round_tripped == manifest
        assert round_tripped.rows == 6
        assert round_tripped.schema == table.schema

    def test_future_version_rejected(self):
        with pytest.raises(StorageError):
            PartitionManifest.from_bytes(
                b'{"format": 99, "rows": 0, "columns": []}'
            )

    def test_chunk_dir_requires_manifest_path(self):
        assert chunk_dir("/warehouse/d/t/p.v2m") == "/warehouse/d/t/p/"
        with pytest.raises(StorageError):
            chunk_dir("/warehouse/d/t/p.npz")


@pytest.fixture()
def months_catalog():
    """Six month partitions with disjoint month zone maps."""
    catalog = Catalog()
    rng = np.random.default_rng(3)
    for month in range(1, 7):
        table = Table.from_arrays(
            month=np.full(50, month, dtype=np.int64),
            imsi=np.arange(50, dtype=np.int64),
            dur=rng.normal(size=50),
            plan=np.asarray(
                rng.choice(["gold", "silver"], size=50), dtype=object
            ),
        )
        catalog.save(table, "cdr", partition=f"month={month}")
    return catalog


class TestCatalogScan:
    def test_projection_only_decodes_requested_chunks(self, months_catalog):
        catalog = months_catalog
        out = catalog.scan("cdr", columns=["dur", "month"])
        assert out.schema.names == ("dur", "month")
        assert out.num_rows == 300
        health = catalog.store.health
        assert health.chunks_skipped == 6 * 2  # imsi + plan per partition
        assert health.bytes_decoded_saved > 0

    def test_predicate_prunes_partitions(self, months_catalog):
        catalog = months_catalog
        out = catalog.scan(
            "cdr",
            columns=["imsi", "dur"],
            predicate=[ScanPredicate("month", "=", 3)],
        )
        assert out.num_rows == 50  # only month=3 survives
        assert catalog.store.health.partitions_pruned == 5

    def test_pruning_never_filters_kept_partitions(self, months_catalog):
        # month >= 5 keeps partitions 5 and 6 whole; rows are NOT filtered
        # by the scan (the SQL layer's Filter does that).
        out = months_catalog.scan(
            "cdr", predicate=[ScanPredicate("month", ">=", 5)]
        )
        assert out.num_rows == 100

    def test_all_pruned_returns_empty_with_schema(self, months_catalog):
        out = months_catalog.scan(
            "cdr",
            columns=["imsi"],
            predicate=[ScanPredicate("month", ">", 99)],
        )
        assert out.num_rows == 0
        assert out.schema.names == ("imsi",)

    def test_scan_without_arguments_equals_load(self, months_catalog):
        assert months_catalog.scan("cdr") == months_catalog.load("cdr")

    @pytest.mark.parametrize("parts", [1, 2, 8])
    @pytest.mark.parametrize("columns", [None, ["plan", "dur", "month", "ok"]])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_scan_concat_equals_pairwise(self, parts, columns, pruned):
        catalog = Catalog()
        rng = np.random.default_rng(parts)
        for month in range(1, parts + 1):
            n = 10 + 7 * month
            catalog.save(
                Table.from_arrays(
                    month=np.full(n, month, dtype=np.int64),
                    dur=rng.normal(size=n),
                    plan=np.asarray(rng.choice(["a", "bb"], size=n), dtype=object),
                    ok=rng.random(n) < 0.5,
                ),
                "t",
                partition=f"month={month:02d}",
            )
        predicate = [ScanPredicate("month", "<=", 4)] if pruned else None
        kept = range(1, (min(parts, 4) if pruned else parts) + 1)
        # The old kernel: partitions stacked two at a time, in order.
        pieces = [catalog.load("t", partition=f"month={m:02d}") for m in kept]
        names = columns or list(pieces[0].schema.names)
        expected = {n: pieces[0].column(n) for n in names}
        for piece in pieces[1:]:
            expected = {
                n: np.concatenate([expected[n], piece.column(n)]) for n in names
            }
        out = catalog.scan("t", columns=columns, predicate=predicate)
        assert list(out.schema.names) == names
        for n in names:
            assert out.column(n).dtype == expected[n].dtype
            assert np.array_equal(out.column(n), expected[n])
        if not pruned and columns is None:
            assert catalog.load("t") == out

    def test_string_predicate_conservative(self, months_catalog):
        # Every partition has both plans; nothing prunable.
        out = months_catalog.scan(
            "cdr", predicate=[ScanPredicate("plan", "=", "gold")]
        )
        assert out.num_rows == 300
        assert months_catalog.store.health.partitions_pruned == 0


class TestFormatNegotiation:
    def test_drop_removes_all_chunk_files(self):
        store = BlockStore()
        catalog = Catalog(store)
        catalog.save(Table.from_arrays(x=np.arange(4), y=np.arange(4)), "t")
        catalog.drop("t")
        assert store.total_bytes == 0
        assert store.list_files("/warehouse/") == []


class TestChunkCache:
    def test_cache_keys_are_chunk_paths(self):
        catalog = Catalog()
        catalog.save(
            Table.from_arrays(a=np.arange(4), b=np.arange(4) * 2.0), "t"
        )
        assert chunk_path(catalog, "a") in catalog.table_cache
        assert chunk_path(catalog, "b") in catalog.table_cache

    def test_projection_scan_only_warms_requested_chunks(self):
        catalog = Catalog()
        catalog.save(
            Table.from_arrays(a=np.arange(4), b=np.arange(4) * 2.0), "t"
        )
        catalog.clear_cache()
        catalog.scan("t", columns=["a"])
        assert chunk_path(catalog, "a") in catalog.table_cache
        assert chunk_path(catalog, "b") not in catalog.table_cache

    def test_chunk_corruption_invalidates_only_that_chunk(self):
        catalog = Catalog()
        table = Table.from_arrays(a=np.arange(4), b=np.arange(4) * 2.0)
        catalog.save(table, "t")
        path = chunk_path(catalog, "a")
        status = catalog.store.status(path)
        catalog.store.corrupt_block(path, 0, status.blocks[0].replicas[0])
        assert path not in catalog.table_cache
        assert chunk_path(catalog, "b") in catalog.table_cache
        assert catalog.load("t") == table  # replica heals the read
