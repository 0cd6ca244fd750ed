"""Golden digest of one simulated world, plus the graph-edge oracle.

The simulator is seeded end to end, so a fixed ``ScaleConfig`` must give
the same world byte for byte.  A change to ``repro.datagen`` either keeps
:data:`WORLD_DIGEST` or re-records it on purpose (and says so in its
change notes): every workload, the quality reference and the experiment
outputs are built on these tables.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ScaleConfig
from repro.datagen.simulator import TelcoSimulator
from repro.datagen.social import _community_edges

#: Digest of every table of the 300-customer, 9-month, seed-7 world.
WORLD_DIGEST = "3802848159b65c5d"


def _table_digest(h, name: str, table) -> None:
    h.update(name.encode())
    for col in table.schema.names:
        arr = table.column(col)
        h.update(f"\x1e{col}:{arr.dtype}:{len(arr)}".encode())
        if arr.dtype.kind == "O":
            h.update("\x1f".join(map(str, arr.tolist())).encode("utf-8"))
        else:
            h.update(np.ascontiguousarray(arr).tobytes())


def world_digest(world) -> str:
    h = hashlib.sha256()
    for data in world.months:
        for name in sorted(data.tables):
            _table_digest(h, f"{data.month}/{name}", data.tables[name])
    _table_digest(h, "final_recharge_period", world.final_recharge_period)
    return h.hexdigest()[:16]


def test_world_digest_is_pinned():
    world = TelcoSimulator(ScaleConfig(population=300, months=9, seed=7)).run()
    assert world_digest(world) == WORLD_DIGEST


def reference_community_edges(labels, mean_degree, cross_fraction, rng):
    """The ``seen``-set loops ``_community_edges`` used to run."""
    n = len(labels)
    target_edges = int(n * mean_degree / 2)
    order = np.argsort(labels, kind="mergesort")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    groups = np.split(order, boundaries)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    intra_budget = int(target_edges * (1 - cross_fraction))
    total = sum(len(g) for g in groups if len(g) > 1)
    for group in groups:
        if len(group) < 2:
            continue
        share = max(1, int(round(intra_budget * len(group) / max(total, 1))))
        a = rng.choice(group, size=share)
        b = rng.choice(group, size=share)
        for u, v in zip(a.tolist(), b.tolist()):
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                edges.append(key)
    cross_budget = target_edges - len(edges)
    if cross_budget > 0:
        a = rng.integers(0, n, size=cross_budget * 2)
        b = rng.integers(0, n, size=cross_budget * 2)
        for u, v in zip(a.tolist(), b.tolist()):
            if u == v or len(edges) >= target_edges:
                continue
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                edges.append(key)
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 400),
    groups=st.integers(1, 60),
    mean_degree=st.floats(0.5, 12.0),
    cross_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_community_edges_match_reference(n, groups, mean_degree, cross_fraction, seed):
    labels = np.random.default_rng(seed ^ 0x5EED).integers(0, groups, size=n)
    got_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    got = _community_edges(labels, mean_degree, cross_fraction, got_rng)
    ref = reference_community_edges(labels, mean_degree, cross_fraction, ref_rng)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", [7, 3])
def test_build_graph_edges_match_reference(seed):
    # The shipped call (mean degree 8, 10 % cross) and cooccurrence
    # (10, 3 %) settings on simulator-sized cluster labels.
    labels = np.random.default_rng(seed).integers(0, 100, size=1500)
    for mean_degree, cross in ((8.0, 0.10), (10.0, 0.03)):
        got_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = _community_edges(labels, mean_degree, cross, got_rng)
        ref = reference_community_edges(labels, mean_degree, cross, ref_rng)
        np.testing.assert_array_equal(got, ref)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
