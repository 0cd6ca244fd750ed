"""Systematic crash-consistency sweep over every enumerated crash point.

Each scenario runs once unarmed to enumerate the crash points its write
path passes (block-store mutations plus the catalog commit-protocol
steps), then once per point with ``CrashPoint.raise_at(k)`` armed.  After
every simulated crash the catalog is reopened over the surviving store
and the crash-consistency invariants are asserted:

* ``Catalog.open`` succeeds and every registered partition loads;
* no staging files or torn manifests survive recovery;
* a second fsck pass finds nothing (recovery converged);
* the partition is in exactly its pre-state or post-state, decided by
  whether the crash fell before or after the commit record — on a
  volatile store (unsynced writes lost at crash) the same rule holds
  under ``fsync="commit"``, which is the durability claim.

A hypothesis property additionally tears the last written file at an
arbitrary byte offset before recovery, simulating torn writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplat.blockstore import BlockStore
from repro.dataplat.catalog import Catalog
from repro.dataplat.executor import get_default_backend
from repro.dataplat.journal import Durability, fsck_store
from repro.dataplat.resilience import CrashPoint, FaultInjector, SimulatedCrash
from repro.dataplat.table import Table


def _column_sum(args: tuple[Table, str]) -> int:
    """Top-level so a process backend can pickle the task."""
    table, column = args
    return int(table[column].sum())


def make_table(seed: int, n: int = 16) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_arrays(
        imsi=np.arange(n, dtype=np.int64),
        dur=rng.integers(0, 100, size=n),
    )


@dataclass(frozen=True)
class Scenario:
    """One crashed operation with recognizable pre/post states."""

    name: str
    setup: Callable[[Catalog], None]
    op: Callable[[Catalog], None]
    commit_label: str
    is_old: Callable[[Catalog], bool]
    is_new: Callable[[Catalog], bool]


def _loads(catalog: Catalog, name: str, seed: int, partition=None) -> bool:
    try:
        return catalog.load(name, partition=partition) == make_table(seed)
    except Exception:
        return False


SCENARIOS = [
    Scenario(
        name="fresh-v2-partition",
        setup=lambda c: c.save(make_table(1), "t", partition="m=1"),
        op=lambda c: c.save(make_table(2), "t", partition="m=2"),
        commit_label="catalog.save.commit",
        is_old=lambda c: c.partitions("t") == ["m=1"]
        and _loads(c, "t", 1, "m=1"),
        is_new=lambda c: c.partitions("t") == ["m=1", "m=2"]
        and _loads(c, "t", 1, "m=1")
        and _loads(c, "t", 2, "m=2"),
    ),
    Scenario(
        name="v2-overwrite",
        setup=lambda c: c.save(make_table(1), "t"),
        op=lambda c: c.save(make_table(2), "t"),
        commit_label="catalog.save.commit",
        is_old=lambda c: _loads(c, "t", 1),
        is_new=lambda c: _loads(c, "t", 2),
    ),
    Scenario(
        name="drop-partition",
        setup=lambda c: (
            c.save(make_table(1), "t", partition="m=1"),
            c.save(make_table(2), "t", partition="m=2"),
        ),
        op=lambda c: c.drop_partition("t", "m=1"),
        commit_label="catalog.drop.commit",
        is_old=lambda c: c.partitions("t") == ["m=1", "m=2"],
        is_new=lambda c: c.partitions("t") == ["m=2"]
        and _loads(c, "t", 2, "m=2"),
    ),
]

VARIANTS = ["durable", "volatile-commit"]


def build_world(variant: str) -> tuple[Catalog, CrashPoint]:
    crash = CrashPoint()
    store = BlockStore(
        fault_injector=FaultInjector(crash_point=crash),
        volatile=variant.startswith("volatile"),
    )
    return Catalog(store=store), crash


def assert_recovered_invariants(store: BlockStore, catalog: Catalog) -> None:
    """What must hold after *any* crash + recovery."""
    for database in catalog.databases():
        for name in catalog.tables(database):
            catalog.load(name, database=database)  # all partitions readable
    assert not [
        p for p in store.list_files("/warehouse/") if ".staging" in p
    ], "staging residue survived recovery"
    after = fsck_store(store)
    assert after.clean, f"recovery did not converge: {after.render()}"


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_crash_at_every_point(scenario: Scenario, variant: str):
    # Enumeration run: no crash, collect the op's hit sequence.
    catalog, crash = build_world(variant)
    scenario.setup(catalog)
    catalog.store.fsync_all()
    crash.reset()
    scenario.op(catalog)
    labels = [label for label, _ in crash.visited]
    assert scenario.commit_label in labels, labels
    commit_hit = 1 + labels.index(scenario.commit_label)
    total = crash.hits
    assert total >= 5, f"suspiciously few crash points: {labels}"

    for k in range(1, total + 1):
        catalog, crash = build_world(variant)
        scenario.setup(catalog)
        catalog.store.fsync_all()  # setup is the durable baseline
        crash.reset()
        crash.raise_at(k)
        with pytest.raises(SimulatedCrash):
            scenario.op(catalog)
        store = catalog.store
        if variant.startswith("volatile"):
            store.crash()  # unsynced writes vanish with the process
        reopened = Catalog.open(store)
        assert_recovered_invariants(store, reopened)
        # The commit record is written and fsynced exactly at the commit
        # hit, so the crash index decides which state must survive.
        expected_new = k >= commit_hit
        where = f"{scenario.name}/{variant} crash at hit {k} ({labels[k-1]})"
        if expected_new:
            assert scenario.is_new(reopened), f"{where}: post-state lost"
        else:
            assert scenario.is_old(reopened), f"{where}: pre-state damaged"


def test_fsync_never_loses_commits_but_stays_consistent():
    """``fsync="never"``: the whole op may vanish, never half of it."""
    durability = Durability(fsync="never")
    crash = CrashPoint()
    store = BlockStore(
        fault_injector=FaultInjector(crash_point=crash), volatile=True
    )
    catalog = Catalog(store=store, durability=durability)
    catalog.save(make_table(1), "t")
    store.fsync_all()
    crash.reset()
    catalog.save(make_table(2), "t")  # completes fully...
    store.crash()  # ...but nothing was synced: the volatile crash eats it
    reopened = Catalog.open(store)
    assert_recovered_invariants(store, reopened)
    assert reopened.load("t") == make_table(1)


@settings(max_examples=30, deadline=None)
@given(
    hit_fraction=st.floats(0.0, 1.0),
    torn_fraction=st.floats(0.0, 1.0),
)
def test_any_write_prefix_with_torn_tail_recovers(
    hit_fraction: float, torn_fraction: float
):
    """Property: crash anywhere, tear the last written file at any byte
    offset, and recovery still lands in the old or the new state."""
    catalog, crash = build_world("durable")
    catalog.save(make_table(1), "t")
    crash.reset()
    catalog.save(make_table(2), "t")
    total = crash.hits
    k = 1 + round(hit_fraction * (total - 1))

    catalog, crash = build_world("durable")
    catalog.save(make_table(1), "t")
    crash.reset()
    crash.raise_at(k)
    with pytest.raises(SimulatedCrash):
        catalog.save(make_table(2), "t")
    store = catalog.store
    written = [
        detail
        for label, detail in crash.visited
        if label == "blockstore.write" and store.exists(detail)
    ]
    if written:
        size = len(store.read(written[-1]))
        store.truncate(written[-1], round(size * torn_fraction))
    reopened = Catalog.open(store)
    assert_recovered_invariants(store, reopened)
    assert _loads(reopened, "t", 1) or _loads(reopened, "t", 2)


def test_recovered_catalog_serves_configured_backend():
    """A recovered catalog feeds the default executor — the pool on a
    multi-CPU host, serial when pinned to one CPU — identically."""
    catalog, crash = build_world("durable")
    catalog.save(make_table(1), "t")
    crash.reset()
    crash.raise_at(4)  # somewhere mid-protocol; any point works here
    with pytest.raises(SimulatedCrash):
        catalog.save(make_table(2), "t")
    reopened = Catalog.open(catalog.store)
    table = reopened.load("t")
    backend = get_default_backend()
    out = backend.map(_column_sum, [(table, "imsi"), (table, "dur")])
    assert out == [int(table["imsi"].sum()), int(table["dur"].sum())]
