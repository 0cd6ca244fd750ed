"""Typed schemas for columnar tables.

A :class:`Schema` is an ordered collection of :class:`Column` definitions.
Types are intentionally few — the four the telco tables need — and each maps
onto a canonical numpy dtype so table columns are always well-typed arrays.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import SchemaError


class ColumnType(enum.Enum):
    """Logical column types supported by the platform."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    @property
    def dtype(self) -> np.dtype:
        """Canonical numpy dtype backing this logical type."""
        return _DTYPES[self]

    @classmethod
    def infer(cls, values: np.ndarray) -> "ColumnType":
        """Infer the logical type of a numpy array."""
        kind = values.dtype.kind
        if kind == "b":
            return cls.BOOL
        if kind in "iu":
            return cls.INT
        if kind == "f":
            return cls.FLOAT
        if kind in "UOS":
            return cls.STRING
        raise SchemaError(f"cannot infer a column type for dtype {values.dtype}")


_DTYPES = {
    ColumnType.INT: np.dtype(np.int64),
    ColumnType.FLOAT: np.dtype(np.float64),
    ColumnType.STRING: np.dtype(object),
    ColumnType.BOOL: np.dtype(np.bool_),
}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    ctype: ColumnType

    def __post_init__(self) -> None:
        # Dots are allowed: the SQL executor qualifies columns as
        # ``binding.column`` while a query is in flight.
        cleaned = self.name.replace("_", "a").replace(".", "a")
        if not self.name or not cleaned.isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")

    def cast(self, values: Iterable) -> np.ndarray:
        """Coerce ``values`` into this column's canonical dtype."""
        arr = np.asarray(values)
        if self.ctype is ColumnType.STRING:
            if arr.dtype == object:
                return arr
            return arr.astype(object)
        try:
            return arr.astype(self.ctype.dtype, copy=False)
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"column {self.name!r}: cannot cast dtype {arr.dtype} "
                f"to {self.ctype.value}"
            ) from exc


class Schema:
    """An ordered set of :class:`Column` definitions.

    Schemas are immutable; transformation methods return new schemas.
    """

    def __init__(self, columns: Iterable[Column]) -> None:
        cols = tuple(columns)
        names = tuple(c.name for c in cols)
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SchemaError(f"duplicate column names: {sorted(dupes)}")
        self._columns = cols
        self._names = names
        self._by_name = {c.name: c for c in cols}

    @classmethod
    def of(cls, **types: ColumnType | str) -> "Schema":
        """Build a schema from keyword arguments.

        >>> Schema.of(imsi="int", dur="float").names
        ('imsi', 'dur')
        """
        cols = []
        for name, ctype in types.items():
            if isinstance(ctype, str):
                ctype = ColumnType(ctype)
            cols.append(Column(name, ctype))
        return cls(cols)

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"unknown column {name!r}; available: {list(self.names)}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)

    def __repr__(self) -> str:
        body = ", ".join(f"{c.name}: {c.ctype.value}" for c in self._columns)
        return f"Schema({body})"

    def select(self, names: Iterable[str]) -> "Schema":
        """Project onto a subset of columns, in the given order."""
        return Schema(self[n] for n in names)

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Return a schema with columns renamed per ``mapping``."""
        return Schema(
            Column(mapping.get(c.name, c.name), c.ctype) for c in self._columns
        )
