"""Extract-transform-load jobs.

The paper's data layer moves BSS/OSS tables from source systems through a
"multi-vendor data adaption module" into standard-format Hive tables.  An
:class:`ETLJob` reproduces the pattern: extract raw records (dicts) from a
source, validate and coerce them against a target schema, apply row
transformations, and load the result into the catalog — with per-job counters
for rows read / rejected / loaded, which the tests use to verify veracity
accounting.

Rejected records are not just counted: they land in a **quarantine
(dead-letter) table** ``<target>__quarantine`` alongside the reject reason,
so a broken vendor adapter can be diagnosed from the warehouse itself.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field

from ..errors import ETLError
from .catalog import Catalog
from .schema import ColumnType, Schema
from .table import Table

#: A raw record from a source system.
Record = Mapping[str, object]

#: Optional row-level transformation; return None to drop the record.
TransformFn = Callable[[dict], dict | None]

#: Schema of every quarantine (dead-letter) table.
QUARANTINE_SCHEMA = Schema.of(reason="string", record="string")

#: Suffix appended to a job's target to name its dead-letter table.
QUARANTINE_SUFFIX = "__quarantine"


@dataclass
class ETLStats:
    """Counters accumulated by one job run."""

    rows_read: int = 0
    rows_rejected: int = 0
    rows_loaded: int = 0
    #: Rows written to the dead-letter table (== rows_rejected when
    #: quarantining is on, 0 when off).
    rows_quarantined: int = 0
    reject_reasons: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rows_rejected += 1
        self.reject_reasons[reason] = self.reject_reasons.get(reason, 0) + 1


class ETLJob:
    """One extract-transform-load pipeline into a catalog table.

    Parameters
    ----------
    schema:
        Target schema; records missing a column or failing coercion are
        rejected (counted, never silently dropped).
    target:
        Catalog table name to load into.
    transform:
        Optional per-record transformation applied before validation.
    """

    def __init__(
        self,
        schema: Schema,
        target: str,
        transform: TransformFn | None = None,
    ) -> None:
        self._schema = schema
        self._target = target
        self._transform = transform

    def run(
        self,
        records: Iterable[Record],
        catalog: Catalog,
        database: str = "default",
        partition: str | None = None,
        max_reject_fraction: float | None = None,
        quarantine: bool = True,
    ) -> ETLStats:
        """Execute the job; returns the run's counters.

        The reject-rate gate (``max_reject_fraction``) is checked *before*
        anything is saved: a failed job raises :class:`ETLError` without
        registering a mostly-empty target table.  Its rejects still land in
        the quarantine table for diagnosis.
        """
        stats = ETLStats()
        columns: dict[str, list] = {name: [] for name in self._schema.names}
        quarantined: list[tuple[str, str]] = []

        def reject(reason: str, row: Mapping) -> None:
            stats.reject(reason)
            if quarantine:
                quarantined.append((reason, repr(dict(row))))

        for record in records:
            stats.rows_read += 1
            row = dict(record)
            if self._transform is not None:
                transformed = self._transform(row)
                if transformed is None:
                    reject("transform_dropped", row)
                    continue
                row = transformed
            reason = self._coerce(row, columns)
            if reason is not None:
                reject(reason, row)
                continue
            stats.rows_loaded += 1

        failed = (
            max_reject_fraction is not None
            and stats.rows_read > 0
            and stats.rows_rejected / stats.rows_read > max_reject_fraction
        )
        if quarantine and quarantined:
            self._save_quarantine(quarantined, catalog, database, partition)
            stats.rows_quarantined = len(quarantined)
        if failed:
            raise ETLError(
                f"job {self._target!r} rejected "
                f"{stats.rows_rejected / stats.rows_read:.0%} of rows "
                f"(> {max_reject_fraction:.0%}): {stats.reject_reasons}"
            )
        table = Table(
            self._schema,
            {
                name: _column_array(values, self._schema[name].ctype)
                for name, values in columns.items()
            },
        )
        catalog.save(table, self._target, database=database, partition=partition)
        return stats

    def _coerce(self, row: dict, columns: dict[str, list]) -> str | None:
        """Coerce ``row`` into ``columns``; returns a reject reason or None.

        Nothing is appended unless the whole row coerces, so a mid-row
        failure cannot leave ragged columns behind.
        """
        out: dict = {}
        for col in self._schema:
            if col.name not in row:
                return f"missing:{col.name}"
            value = row[col.name]
            try:
                out[col.name] = _coerce_value(value, col.ctype)
            except (TypeError, ValueError):
                return f"badtype:{col.name}"
        for name in self._schema.names:
            columns[name].append(out[name])
        return None

    def _save_quarantine(
        self,
        quarantined: list[tuple[str, str]],
        catalog: Catalog,
        database: str,
        partition: str | None,
    ) -> None:
        import numpy as np

        table = Table(
            QUARANTINE_SCHEMA,
            {
                "reason": np.asarray([q[0] for q in quarantined]),
                "record": np.asarray([q[1] for q in quarantined]),
            },
        )
        catalog.save(
            table,
            f"{self._target}{QUARANTINE_SUFFIX}",
            database=database,
            partition=partition,
        )


def _coerce_value(value: object, ctype: ColumnType):
    if ctype is ColumnType.INT:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"non-integral value {value!r}")
        return int(value)  # type: ignore[arg-type]
    if ctype is ColumnType.FLOAT:
        return float(value)  # type: ignore[arg-type]
    if ctype is ColumnType.BOOL:
        if isinstance(value, bool):
            return value
        if value in (0, 1):
            return bool(value)
        raise ValueError(f"not a boolean: {value!r}")
    return str(value)


def _column_array(values: list, ctype: ColumnType):
    import numpy as np

    if not values:
        return np.empty(0, dtype=ctype.dtype)
    return np.asarray(values, dtype=ctype.dtype)
