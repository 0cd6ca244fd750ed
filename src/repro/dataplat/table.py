"""Columnar, numpy-backed tables.

A :class:`Table` is the platform's unit of data: an immutable mapping from
column names to equal-length numpy arrays, plus a :class:`~.schema.Schema`.
All relational operations (filter, project, join, group-by) are vectorized.

Tables serialize to / from the block store via a simple npz-based codec so the
mini-HDFS stores real bytes, not Python references.
"""

from __future__ import annotations

import io
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from ..errors import SchemaError
from .schema import Column, ColumnType, Schema


class Table:
    """An immutable columnar table.

    Parameters
    ----------
    schema:
        Column definitions; order defines column order.
    columns:
        Mapping of column name → array-like.  Arrays are cast to the schema's
        canonical dtypes and must share one length.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, Iterable]) -> None:
        missing = set(schema.names) - set(columns)
        extra = set(columns) - set(schema.names)
        if missing:
            raise SchemaError(f"missing columns: {sorted(missing)}")
        if extra:
            raise SchemaError(f"unexpected columns: {sorted(extra)}")
        data: dict[str, np.ndarray] = {}
        length: int | None = None
        for col in schema:
            arr = col.cast(columns[col.name])
            if arr.ndim != 1:
                raise SchemaError(f"column {col.name!r} must be 1-D, got {arr.ndim}-D")
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise SchemaError(
                    f"column {col.name!r} has length {len(arr)}, expected {length}"
                )
            data[col.name] = arr
        self._schema = schema
        self._data = data
        self._length = length if length is not None else 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(cls, **columns: Iterable) -> "Table":
        """Build a table inferring the schema from numpy dtypes."""
        cols = []
        cast: dict[str, np.ndarray] = {}
        for name, values in columns.items():
            arr = np.asarray(values)
            ctype = ColumnType.infer(arr)
            cols.append(Column(name, ctype))
            cast[name] = arr
        return cls(Schema(cols), cast)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "Table":
        """Build a table from an iterable of row tuples."""
        rows = list(rows)
        columns: dict[str, list] = {name: [] for name in schema.names}
        for row in rows:
            if len(row) != len(schema):
                raise SchemaError(
                    f"row has {len(row)} values, schema has {len(schema)}"
                )
            for name, value in zip(schema.names, row):
                columns[name].append(value)
        if not rows:
            columns = {
                c.name: np.empty(0, dtype=c.ctype.dtype) for c in schema
            }
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """An empty table with the given schema."""
        return cls.from_rows(schema, [])

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._length

    @property
    def nbytes(self) -> int:
        """Approximate decoded size in bytes (cache accounting).

        Object (string) columns count the pointer array plus the character
        payload, so a wide string table is not billed as 8 bytes per cell.
        """
        total = 0
        for arr in self._data.values():
            total += arr.nbytes
            if arr.dtype.kind == "O":
                total += sum(len(str(v)) for v in arr)
        return total

    @property
    def num_columns(self) -> int:
        return len(self._schema)

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: object) -> bool:
        return name in self._schema

    def column(self, name: str) -> np.ndarray:
        """The backing array of one column (do not mutate)."""
        self._schema[name]  # raises SchemaError with a helpful message
        return self._data[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def rows(self) -> Iterator[tuple]:
        """Iterate over rows as tuples (column order = schema order)."""
        arrays = [self._data[name] for name in self._schema.names]
        for i in range(self._length):
            yield tuple(arr[i] for arr in arrays)

    def to_dict(self) -> dict[str, np.ndarray]:
        """Copy of the column mapping."""
        return dict(self._data)

    def __repr__(self) -> str:
        return f"Table({self._length} rows, {self._schema!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self._schema != other._schema or self._length != other._length:
            return False
        return all(
            np.array_equal(self._data[n], other._data[n]) for n in self._schema.names
        )

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """Project onto the given columns."""
        schema = self._schema.select(names)
        return Table(schema, {n: self._data[n] for n in names})

    def rename(self, mapping: dict[str, str]) -> "Table":
        """Rename columns per ``mapping``."""
        schema = self._schema.rename(mapping)
        data = {mapping.get(n, n): self._data[n] for n in self._schema.names}
        return Table(schema, data)

    def with_column(self, name: str, values: Iterable) -> "Table":
        """Append (or replace) a column."""
        arr = np.asarray(values)
        ctype = ColumnType.infer(arr)
        if name in self._schema:
            cols = [
                Column(name, ctype) if c.name == name else c for c in self._schema
            ]
        else:
            cols = list(self._schema.columns) + [Column(name, ctype)]
        data = dict(self._data)
        data[name] = arr
        return Table(Schema(cols), data)

    def drop(self, names: Sequence[str]) -> "Table":
        """Drop the given columns."""
        for n in names:
            self._schema[n]
        keep = [n for n in self._schema.names if n not in set(names)]
        return self.select(keep)

    def take(self, indices: np.ndarray) -> "Table":
        """Row selection by integer indices (also reorders)."""
        data = {n: arr[indices] for n, arr in self._data.items()}
        return Table(self._schema, data)

    def mask(self, predicate: np.ndarray) -> "Table":
        """Row selection by boolean mask."""
        predicate = np.asarray(predicate, dtype=bool)
        if len(predicate) != self._length:
            raise SchemaError(
                f"mask length {len(predicate)} != table length {self._length}"
            )
        return self.take(np.flatnonzero(predicate))

    def filter(self, fn: Callable[["Table"], np.ndarray]) -> "Table":
        """Filter with a vectorized predicate over the whole table."""
        return self.mask(fn(self))

    def head(self, n: int) -> "Table":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self._length)))

    def sort_by(self, names: Sequence[str], descending: bool = False) -> "Table":
        """Stable multi-key sort."""
        keys = [self._data[n] for n in reversed(list(names))]
        order = np.lexsort(keys)
        if descending:
            order = order[::-1]
        return self.take(order)

    def concat_rows(self, other: "Table") -> "Table":
        """Stack another table with an identical schema underneath."""
        return Table.concat([self, other])

    @classmethod
    def concat(cls, tables: Sequence["Table"]) -> "Table":
        """Stack tables sharing one schema, in order, copying each column
        once (a single table is returned as is)."""
        first = tables[0]
        for other in tables[1:]:
            if other.schema != first.schema:
                raise SchemaError(
                    f"schema mismatch: {first.schema!r} vs {other.schema!r}"
                )
        if len(tables) == 1:
            return first
        data = {
            n: np.concatenate([t._data[n] for t in tables])
            for n in first.schema.names
        }
        return cls(first.schema, data)

    def join(
        self,
        other: "Table",
        on: Sequence[str],
        how: str = "inner",
        suffix: str = "_r",
    ) -> "Table":
        """Equi-join on the columns ``on``.

        ``how`` is ``"inner"`` or ``"left"``.  Right-side columns that collide
        with left-side names (other than the keys) get ``suffix`` appended.
        For left joins, unmatched numeric right columns are filled with 0 /
        0.0 / False and string columns with ``""``.
        """
        if how not in ("inner", "left"):
            raise SchemaError(f"unsupported join type: {how!r}")
        on = list(on)
        li, ri, ui = _join_indices(self, other, on, how)

        right_cols = [c for c in other.schema if c.name not in set(on)]
        out_cols = list(self._schema.columns)
        rename: dict[str, str] = {}
        for col in right_cols:
            name = col.name
            if name in self._schema:
                name = f"{col.name}{suffix}"
                rename[col.name] = name
            out_cols.append(Column(name, col.ctype))
        out_schema = Schema(out_cols)

        data: dict[str, np.ndarray] = {}
        for name in self._schema.names:
            matched = self._data[name][li]
            if how == "left" and len(ui):
                data[name] = np.concatenate([matched, self._data[name][ui]])
            else:
                data[name] = matched
        for col in right_cols:
            out_name = rename.get(col.name, col.name)
            matched = other._data[col.name][ri]
            if how == "left" and len(ui):
                fill = _fill_value(col.ctype)
                pad = np.full(len(ui), fill, dtype=matched.dtype)
                data[out_name] = np.concatenate([matched, pad])
            else:
                data[out_name] = matched
        return Table(out_schema, data)

    def group_by(
        self,
        keys: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]],
    ) -> "Table":
        """Group by ``keys`` and aggregate.

        ``aggregations`` maps output column name → ``(function, input column)``
        where function is one of ``sum``, ``mean``, ``min``, ``max``,
        ``count``, ``count_distinct``, ``first``.

        >>> t = Table.from_arrays(k=np.array([1, 1, 2]), v=np.array([1.0, 2.0, 3.0]))
        >>> g = t.group_by(["k"], {"total": ("sum", "v")})
        >>> sorted((int(k), float(v)) for k, v in zip(g["k"], g["total"]))
        [(1, 3.0), (2, 3.0)]
        """
        keys = list(keys)
        if not keys:
            raise SchemaError("group_by requires at least one key")
        key_arrays = [self._data[k] for k in keys]
        group_ids, uniques = _group_ids(key_arrays)
        n_groups = len(uniques[0]) if uniques else 0

        out_cols = [self._schema[k] for k in keys]
        data: dict[str, np.ndarray] = {
            k: uniques[i] for i, k in enumerate(keys)
        }
        for out_name, (fn, col_name) in aggregations.items():
            values = None if fn == "count" else self._data[col_name]
            agg = _aggregate(fn, group_ids, n_groups, values)
            data[out_name] = agg
            out_cols.append(Column(out_name, ColumnType.infer(agg)))
        return Table(Schema(out_cols), data)

    # ------------------------------------------------------------------
    # Serialization (for the block store)
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to npz bytes (string columns stored as unicode)."""
        buf = io.BytesIO()
        arrays = {}
        meta = []
        for col in self._schema:
            arr = self._data[col.name]
            if col.ctype is ColumnType.STRING:
                arr = arr.astype(str)
            arrays[col.name] = arr
            meta.append(f"{col.name}:{col.ctype.value}")
        arrays["__schema__"] = np.asarray(meta, dtype=str)
        np.savez(buf, **arrays)
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, payload: bytes) -> "Table":
        """Inverse of :meth:`to_bytes`."""
        with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
            meta = [str(m) for m in npz["__schema__"]]
            cols = []
            data = {}
            for entry in meta:
                name, _, ctype_name = entry.rpartition(":")
                col = Column(name, ColumnType(ctype_name))
                cols.append(col)
                arr = npz[name]
                if col.ctype is ColumnType.STRING:
                    arr = arr.astype(object)
                data[name] = arr
        return cls(Schema(cols), data)


def _key_ids(table: Table, on: Sequence[str]) -> list:
    """Row keys for join hashing."""
    arrays = [table.column(n) for n in on]
    if len(arrays) == 1:
        return arrays[0].tolist()
    return list(zip(*(a.tolist() for a in arrays)))


def _join_codes(
    left: Table, right: Table, on: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Shared dense key codes for both sides of an equi-join.

    Factorizes each key column over the *concatenation* of the two sides
    so equal keys get equal codes regardless of side, combining multiple
    keys mixed-radix and re-densifying.  ``equal_nan=False`` keeps the
    hash-path semantics: NaN keys never match anything, themselves
    included.
    """
    n_left = left.num_rows
    combined: np.ndarray | None = None
    for name in on:
        both = np.concatenate([left.column(name), right.column(name)])
        uniq, codes = np.unique(both, return_inverse=True, equal_nan=False)
        codes = codes.astype(np.int64, copy=False)
        if combined is None:
            combined = codes
        else:
            combined = combined * (len(uniq) + 1) + codes
            _, combined = np.unique(combined, return_inverse=True)
            combined = combined.astype(np.int64, copy=False)
    assert combined is not None
    return combined[:n_left], combined[n_left:]


def _join_indices_hashed(
    left: Table, right: Table, on: Sequence[str], how: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference dict-bucket join (row order the vectorized path must match)."""
    left_keys = _key_ids(left, on)
    right_keys = _key_ids(right, on)
    buckets: dict[Any, list[int]] = {}
    for idx, key in enumerate(right_keys):
        buckets.setdefault(key, []).append(idx)
    left_idx: list[int] = []
    right_idx: list[int] = []
    unmatched: list[int] = []
    for idx, key in enumerate(left_keys):
        matches = buckets.get(key)
        if matches:
            left_idx.extend([idx] * len(matches))
            right_idx.extend(matches)
        elif how == "left":
            unmatched.append(idx)
    return (
        np.asarray(left_idx, dtype=np.intp),
        np.asarray(right_idx, dtype=np.intp),
        np.asarray(unmatched, dtype=np.intp),
    )


def _join_indices(
    left: Table, right: Table, on: Sequence[str], how: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices realizing an equi-join: (left, right, unmatched-left).

    Vectorized: factorize keys to shared codes, group right rows per code
    with a stable argsort, then expand each left row against its code's
    run.  Matched pairs come out ordered by left row, ties by right row —
    bit-identical to :func:`_join_indices_hashed`, which remains the
    fallback for key columns numpy cannot sort together (e.g. a numeric
    column joined against strings; such keys never match anyway).
    """
    if not on:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, empty
    try:
        left_codes, right_codes = _join_codes(left, right, on)
    except TypeError:
        return _join_indices_hashed(left, right, on, how)
    n_codes = int(
        max(
            left_codes.max(initial=-1), right_codes.max(initial=-1)
        )
    ) + 1
    counts = np.bincount(right_codes, minlength=n_codes)
    order = np.argsort(right_codes, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])) if n_codes else (
        np.empty(0, dtype=np.int64)
    )
    reps = counts[left_codes]
    ends = np.cumsum(reps)
    total = int(ends[-1]) if len(ends) else 0
    li = np.repeat(np.arange(left.num_rows, dtype=np.intp), reps)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - reps, reps)
    ri = order[np.repeat(starts[left_codes], reps) + within].astype(
        np.intp, copy=False
    )
    if how == "left":
        ui = np.flatnonzero(reps == 0).astype(np.intp, copy=False)
    else:
        ui = np.empty(0, dtype=np.intp)
    return li, ri, ui


def _fill_value(ctype: ColumnType):
    if ctype is ColumnType.STRING:
        return ""
    if ctype is ColumnType.BOOL:
        return False
    if ctype is ColumnType.INT:
        return 0
    return 0.0


def _group_ids(key_arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dense group ids plus per-key unique value arrays (aligned)."""
    if len(key_arrays) == 1:
        uniq, ids = np.unique(key_arrays[0], return_inverse=True)
        return ids, [uniq]
    # Combine keys into a structured view by factorizing each then combining.
    factors = []
    sizes = []
    for arr in key_arrays:
        uniq, ids = np.unique(arr, return_inverse=True)
        factors.append((uniq, ids))
        sizes.append(len(uniq))
    combined = np.zeros(len(key_arrays[0]), dtype=np.int64)
    for (uniq, ids), size in zip(factors, sizes):
        combined = combined * size + ids
    uniq_combined, group_ids = np.unique(combined, return_inverse=True)
    # Recover one representative row index per group to read key values back.
    first_idx = np.zeros(len(uniq_combined), dtype=np.intp)
    seen = np.full(len(uniq_combined), False)
    for row, gid in enumerate(group_ids):
        if not seen[gid]:
            seen[gid] = True
            first_idx[gid] = row
    uniques = [arr[first_idx] for arr in key_arrays]
    return group_ids, uniques


def _aggregate(
    fn: str, group_ids: np.ndarray, n_groups: int, values: np.ndarray | None
) -> np.ndarray:
    """Vectorized aggregation of ``values`` per group."""
    if fn == "count":
        return np.bincount(group_ids, minlength=n_groups).astype(np.int64)
    if values is None:
        raise SchemaError(f"aggregation {fn!r} requires an input column")
    if fn == "count_distinct":
        out = np.zeros(n_groups, dtype=np.int64)
        pairs = {}
        for gid, val in zip(group_ids.tolist(), values.tolist()):
            pairs.setdefault(gid, set()).add(val)
        for gid, vals in pairs.items():
            out[gid] = len(vals)
        return out
    if fn == "first":
        out = np.empty(n_groups, dtype=values.dtype)
        seen = np.full(n_groups, False)
        for row in range(len(values) - 1, -1, -1):
            out[group_ids[row]] = values[row]
        del seen
        return out
    numeric = values.astype(np.float64)
    if fn == "sum":
        # bincount returns int64 on empty input even with float weights.
        return np.bincount(
            group_ids, weights=numeric, minlength=n_groups
        ).astype(np.float64)
    if fn == "mean":
        totals = np.bincount(group_ids, weights=numeric, minlength=n_groups)
        counts = np.bincount(group_ids, minlength=n_groups)
        return totals / np.maximum(counts, 1)
    if fn == "min":
        out = np.full(n_groups, np.inf)
        np.minimum.at(out, group_ids, numeric)
        out[np.isinf(out)] = 0.0
        return out
    if fn == "max":
        out = np.full(n_groups, -np.inf)
        np.maximum.at(out, group_ids, numeric)
        out[np.isinf(out)] = 0.0
        return out
    raise SchemaError(f"unknown aggregation function: {fn!r}")
