"""Columnar, numpy-backed tables.

A :class:`Table` is the platform's unit of data: an immutable mapping from
column names to equal-length numpy arrays, plus a :class:`~.schema.Schema`.
All relational operations (filter, project, join, group-by) are vectorized.

Tables serialize to / from the block store via a simple npz-based codec so the
mini-HDFS stores real bytes, not Python references.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator, Mapping, Sequence

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
        ids, n_groups, first_idx = factorize([self._data[k] for k in keys])

        out_cols = [self._schema[k] for k in keys]
        data: dict[str, np.ndarray] = {k: self._data[k][first_idx] for k in keys}
        for out_name, (fn, col_name) in aggregations.items():
            if fn == "first":
                agg = self._data[col_name][first_idx]
            elif fn in _GROUP_BY_AGGREGATES:
                values = None if fn == "count" else self._data[col_name]
                agg = aggregate(
                    _GROUP_BY_AGGREGATES[fn], values, ids, n_groups,
                    distinct=fn == "count_distinct",
                )
            else:
                raise SchemaError(f"unknown aggregation function: {fn!r}")
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


def factorize(
    keys: Sequence[np.ndarray], equal_nan: bool = True
) -> tuple[np.ndarray, int, np.ndarray]:
    """Dense group ids over one or more equal-length key arrays.

    Returns ``(ids, n_groups, first_idx)``: ``ids[i]`` is row ``i``'s group
    in ``[0, n_groups)``, numbered in lexicographic key order, and
    ``first_idx[g]`` is group ``g``'s first row.  Each further key is
    combined as ``ids * len(uniq) + codes`` and re-densified, so codes stay
    below the row count and no key count can overflow int64.  Every key
    costs one stable ``np.unique`` (fast on the presorted runs partitions
    hold), a further key also one over its values for its codes;
    ``first_idx`` comes from the last stable one, with no pass of its own.

    With ``equal_nan`` NaN keys form one group (``GROUP BY``, ``DISTINCT``);
    without it every NaN is a key of its own, so a join never matches one.
    """
    uniq, first_idx, ids = np.unique(
        keys[0], return_index=True, return_inverse=True, equal_nan=equal_nan
    )
    for arr in keys[1:]:
        uniq, codes = np.unique(arr, return_inverse=True, equal_nan=equal_nan)
        uniq, first_idx, ids = np.unique(
            ids * len(uniq) + codes, return_index=True, return_inverse=True
        )
    return ids.astype(np.int64, copy=False), len(uniq), first_idx


#: Internal aggregate merging partial ``COUNT`` columns: an *integer* sum,
#: so a count is int64 whichever plan answers it (user-visible ``SUM`` is
#: float by contract).  Only the one partial-aggregate split,
#: :func:`.sql.cbo.split_partials`, emits it; the ``$`` is a
#: character the lexer rejects, so no SQL text can name it.
COUNT_MERGE = "$SUM_COUNTS"

#: ``Table.group_by``'s names for the :func:`aggregate` functions it offers
#: (``first`` reads the group's first row instead).
_GROUP_BY_AGGREGATES = {
    "sum": "SUM", "mean": "AVG", "min": "MIN", "max": "MAX",
    "count": "COUNT", "count_distinct": "COUNT",
}


def aggregate(
    name: str,
    values: np.ndarray | None,
    ids: np.ndarray,
    n_groups: int,
    distinct: bool = False,
) -> np.ndarray:
    """Vectorized grouped aggregation under its upper-case SQL name.

    ``values`` is ``None`` only for ``COUNT(*)``; ``ids`` are dense group
    indices in ``[0, n_groups)``, as :func:`factorize` returns them.
    ``distinct`` applies to ``COUNT`` only.
    """
    if name == "COUNT":
        if values is None or not distinct:
            return np.bincount(ids, minlength=n_groups).astype(np.int64)
        out = np.zeros(n_groups, dtype=np.int64)
        seen: dict[int, set] = {}
        for gid, val in zip(ids.tolist(), values.tolist()):
            seen.setdefault(gid, set()).add(val)
        for gid, vals in seen.items():
            out[gid] = len(vals)
        return out
    if name == COUNT_MERGE:
        out = np.zeros(n_groups, dtype=np.int64)
        np.add.at(out, ids, np.asarray(values, dtype=np.int64))
        return out
    numeric = np.asarray(values, dtype=np.float64)
    if name == "SUM":
        # bincount returns int64 on empty input even with float weights.
        return np.bincount(
            ids, weights=numeric, minlength=n_groups
        ).astype(np.float64)
    if name == "AVG":
        totals = np.bincount(ids, weights=numeric, minlength=n_groups)
        counts = np.bincount(ids, minlength=n_groups)
        return totals / np.maximum(counts, 1)
    if name in ("MIN", "MAX"):
        sentinel = np.inf if name == "MIN" else -np.inf
        out = np.full(n_groups, sentinel)
        if name == "MIN":
            np.minimum.at(out, ids, numeric)
        else:
            np.maximum.at(out, ids, numeric)
        # Zero only the genuinely empty groups — a group whose true
        # extremum is ±inf (e.g. an infinite PSI) must keep it.
        out[np.bincount(ids, minlength=n_groups) == 0] = 0.0
        return out
    if name == "MEDIAN":
        out = np.zeros(n_groups)
        order = np.argsort(ids, kind="mergesort")
        sorted_ids = ids[order]
        sorted_vals = numeric[order]
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(sorted_ids)]])
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            if hi > lo:
                out[sorted_ids[lo]] = np.median(sorted_vals[lo:hi])
        return out
    if name in ("STDDEV", "VARIANCE"):
        counts = np.bincount(ids, minlength=n_groups)
        totals = np.bincount(ids, weights=numeric, minlength=n_groups)
        sq = np.bincount(ids, weights=numeric * numeric, minlength=n_groups)
        denom = np.maximum(counts, 1)
        mean = totals / denom
        var = np.maximum(sq / denom - mean * mean, 0.0)
        return np.sqrt(var) if name == "STDDEV" else var
    raise SchemaError(f"unknown aggregate function {name}")


def _join_indices(
    left: Table, right: Table, on: Sequence[str], how: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices realizing an equi-join: (left, right, unmatched-left).

    Factorize keys over both sides concatenated (NaN never matches), group
    right rows per code with a stable argsort, then expand each left row
    against its code's run.  Matched pairs come out ordered by left row,
    ties by right row.  A STRING key never equals a non-STRING one, so
    such a pair matches nothing.
    """
    none = np.empty(0, dtype=np.intp)
    n_left = left.num_rows
    if not on:
        return none, none, none
    if any(
        (left.column(n).dtype == object) != (right.column(n).dtype == object)
        for n in on
    ):
        unmatched = np.arange(n_left, dtype=np.intp) if how == "left" else none
        return none, none, unmatched
    ids, n_codes, _ = factorize(
        [np.concatenate([left.column(n), right.column(n)]) for n in on],
        equal_nan=False,
    )
    left_codes, right_codes = ids[:n_left], ids[n_left:]
    counts = np.bincount(right_codes, minlength=n_codes)
    order = np.argsort(right_codes, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])) if n_codes else (
        np.empty(0, dtype=np.int64)
    )
    reps = counts[left_codes]
    ends = np.cumsum(reps)
    total = int(ends[-1]) if len(ends) else 0
    li = np.repeat(np.arange(n_left, dtype=np.intp), reps)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - reps, reps)
    ri = order[np.repeat(starts[left_codes], reps) + within].astype(
        np.intp, copy=False
    )
    if how == "left":
        ui = np.flatnonzero(reps == 0).astype(np.intp, copy=False)
    else:
        ui = none
    return li, ri, ui


def _fill_value(ctype: ColumnType):
    if ctype is ColumnType.STRING:
        return ""
    if ctype is ColumnType.BOOL:
        return False
    if ctype is ColumnType.INT:
        return 0
    return 0.0
