"""Offline catalog checker: scan a BlockStore for torn or orphaned state.

The in-memory :class:`~repro.dataplat.blockstore.BlockStore` has no disk
image, so this tool operates on JSON *snapshots* (``BlockStore.to_snapshot``)
— the same mechanism the crash tests use to freeze a store mid-commit.  It
is a thin CLI over :func:`repro.dataplat.journal.fsck_store`: the exact
resolution engine ``Catalog.open`` runs, rendered as a report instead of
applied silently.

Usage::

    python scripts/fsck.py SNAPSHOT.json [--repair [--out FIXED.json]]
    python scripts/fsck.py --demo [--repair]

``--demo`` builds a small catalog, kills it at a crash point mid-overwrite
(leaving a staged-but-uncommitted transaction plus a committed one pending
replay), then fscks the wreckage — a self-contained tour of what the
checker finds.  With ``--repair`` the plan is applied and the catalog is
reopened to prove the repaired store is clean.

Exit codes: 0 clean, 1 issues found (report mode) or repaired (repair
mode re-checks and fails if still dirty), 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

import numpy as np

from repro.dataplat.blockstore import BlockStore
from repro.dataplat.catalog import Catalog
from repro.dataplat.journal import fsck_store
from repro.dataplat.resilience import CrashPoint, FaultInjector, SimulatedCrash
from repro.dataplat.table import Table


def _load_store(path: pathlib.Path) -> BlockStore:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read snapshot {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        return BlockStore.from_snapshot(doc)
    except Exception as exc:  # malformed snapshot, not a crash artifact
        print(f"cannot restore snapshot {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _demo_store() -> BlockStore:
    """A store crashed mid-overwrite: one txn staged, one pending replay."""
    crash = CrashPoint()
    store = BlockStore(fault_injector=FaultInjector(crash_point=crash))
    catalog = Catalog(store=store)
    table = Table.from_arrays(
        imsi=np.arange(20), dur=np.linspace(0.0, 5.0, 20)
    )
    catalog.save(table, "calls", partition="month=1")
    catalog.save(table, "calls", partition="month=2")

    # Crash after the commit record but before the renames publish: the
    # transaction is decided (fsck plans a replay) and its staging files
    # are still present.
    crash.raise_at(crash_index(crash, catalog, table, "catalog.save.commit"))
    try:
        catalog.save(
            table.with_column("dur", np.zeros(20)),
            "calls",
            partition="month=1",
        )
    except SimulatedCrash:
        pass
    crash.reset()

    # And one undecided transaction: crash before the commit record, so
    # fsck plans a rollback of the staged files.
    crash.raise_at(crash_index(crash, catalog, table, "catalog.save.barrier"))
    try:
        catalog.save(table, "calls", partition="month=3")
    except SimulatedCrash:
        pass
    return store


def crash_index(
    crash: CrashPoint, catalog: Catalog, table: Table, label: str
) -> int:
    """Find the 1-based hit index of ``label`` via a dry scratch save."""
    crash.reset()
    catalog.save(table, "__probe__", partition="p=0")
    try:
        index = 1 + [v[0] for v in crash.visited].index(label)
    except ValueError:
        raise SystemExit(f"crash point {label!r} never hit")
    catalog.drop("__probe__")
    crash.reset()
    return index


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "snapshot",
        nargs="?",
        type=pathlib.Path,
        help="BlockStore snapshot JSON (from BlockStore.to_snapshot)",
    )
    parser.add_argument(
        "--demo",
        action="store_true",
        help="fsck a built-in crashed catalog instead of a snapshot",
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="apply the recovery plan instead of only reporting",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        help="where to write the repaired snapshot (default: in place)",
    )
    args = parser.parse_args(argv)

    if args.demo == (args.snapshot is not None):
        parser.error("exactly one of SNAPSHOT or --demo is required")

    store = _demo_store() if args.demo else _load_store(args.snapshot)

    report = fsck_store(store, repair=args.repair)
    print(report.render())

    if args.repair:
        after = fsck_store(store, repair=False)
        if not after.clean:
            print("store still dirty after repair:", file=sys.stderr)
            print(after.render(), file=sys.stderr)
            return 1
        reopened = Catalog.open(store)
        assert reopened.last_recovery is not None
        print(
            "repaired; catalog reopens clean with tables "
            f"{sorted(after.tables)}"
        )
        if args.snapshot is not None:
            out = args.out or args.snapshot
            out.write_text(json.dumps(store.to_snapshot(), indent=2))
            print(f"wrote repaired snapshot to {out}")
        return 0

    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
