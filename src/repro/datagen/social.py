"""Social graph generation (Section 4.1.2 substrate).

Three undirected weighted graphs over customer slots:

* **call graph** — who calls whom; community structure (town-level circles)
  with weights = accumulated mutual call minutes;
* **message graph** — a sparse subset of call edges (the paper observes SMS
  has nearly died to OTT apps) with message counts as weights;
* **co-occurrence graph** — who shares a spatiotemporal cube with whom;
  built from *location clusters* (dorms, office blocks), denser and more
  cliquish than the call graph.

Graphs are attached to slots, not customers: a reborn customer moves into
the same community (same dorm/office), which is what keeps co-occurrence
contagion meaningful across rebirths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError


@dataclass(frozen=True)
class SocialGraph:
    """Edge list plus weights over ``n_nodes`` slots."""

    name: str
    edges: np.ndarray  # (m, 2) int64
    weights: np.ndarray  # (m,) float64
    n_nodes: int

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def _community_edges(
    labels: np.ndarray,
    mean_degree: float,
    cross_fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random intra-community edges plus a sprinkle of cross edges."""
    n = len(labels)
    target_edges = int(n * mean_degree / 2)
    order = np.argsort(labels, kind="mergesort")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    groups = np.split(order, boundaries)
    # Allocate intra-community edges proportionally to group size.
    intra_budget = int(target_edges * (1 - cross_fraction))
    total = sum(len(g) for g in groups if len(g) > 1)
    empty = np.empty(0, dtype=np.int64)
    a_draws, b_draws = [empty], [empty]
    for group in groups:
        if len(group) < 2:
            continue
        share = max(1, int(round(intra_budget * len(group) / max(total, 1))))
        a_draws.append(rng.choice(group, size=share))
        b_draws.append(rng.choice(group, size=share))
    lo, hi = _first_new_edges(np.concatenate(a_draws), np.concatenate(b_draws), n)
    cross_budget = target_edges - len(lo)
    if cross_budget > 0:
        a = rng.integers(0, n, size=cross_budget * 2)
        b = rng.integers(0, n, size=cross_budget * 2)
        c_lo, c_hi = _first_new_edges(a, b, n, seen=lo * n + hi)
        lo = np.concatenate([lo, c_lo[:cross_budget]])
        hi = np.concatenate([hi, c_hi[:cross_budget]])
    return np.stack([lo, hi], axis=1).astype(np.int64)


def _first_new_edges(
    a: np.ndarray, b: np.ndarray, n: int, seen: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Undirected pairs ``(a[i], b[i])`` in draw order, minus self-loops,
    repeats and keys in ``seen`` (as ``min * n + max``); each kept pair is
    its first occurrence."""
    keep = a != b
    lo = np.minimum(a, b)[keep]
    hi = np.maximum(a, b)[keep]
    key = lo * n + hi
    if seen is not None:
        fresh = ~np.isin(key, seen)
        lo, hi, key = lo[fresh], hi[fresh], key[fresh]
    first = np.sort(np.unique(key, return_index=True)[1])
    return lo[first], hi[first]


#: Mean call-circle size, and mean location-cluster (dorm, office) size.
COMMUNITY_SIZE = 40
CLUSTER_SIZE = 15


def build_graphs(
    n_slots: int,
    town_id: np.ndarray,
    rng: np.random.Generator,
) -> tuple[dict[str, SocialGraph], np.ndarray]:
    """Build the three graphs; returns them plus the location-cluster labels.

    ``location_cluster`` (the second return) also drives the MR trajectory
    features and the co-occurrence contagion in the simulator.
    """
    if n_slots < 2:
        raise SimulationError(f"need at least 2 slots, got {n_slots}")
    # Call circles: nested inside towns, ~COMMUNITY_SIZE people each.
    n_communities = max(1, n_slots // COMMUNITY_SIZE)
    call_community = (
        town_id * n_communities + rng.integers(0, n_communities, size=n_slots)
    )
    _, call_community = np.unique(call_community, return_inverse=True)
    call_edges = _community_edges(call_community, 8.0, 0.10, rng)
    call_weights = np.exp(rng.normal(3.0, 0.8, size=len(call_edges)))

    # Message graph: a sparse subset of call edges ("everyone uses OTT").
    keep = rng.random(len(call_edges)) < 0.35
    msg_edges = call_edges[keep]
    msg_weights = np.maximum(rng.poisson(4, size=len(msg_edges)), 1).astype(
        np.float64
    )

    # Location clusters (dorm/office): tighter groups, denser edges.
    n_clusters = max(1, n_slots // CLUSTER_SIZE)
    location_cluster = rng.integers(0, n_clusters, size=n_slots)
    cooc_edges = _community_edges(location_cluster, 10.0, 0.03, rng)
    cooc_weights = np.exp(rng.normal(2.0, 0.5, size=len(cooc_edges)))

    graphs = {
        "call": SocialGraph("call", call_edges, call_weights, n_slots),
        "message": SocialGraph("message", msg_edges, msg_weights, n_slots),
        "cooccurrence": SocialGraph(
            "cooccurrence", cooc_edges, cooc_weights, n_slots
        ),
    }
    return graphs, location_cluster


def exposure(
    graph: SocialGraph, churned: np.ndarray
) -> np.ndarray:
    """Weighted fraction of each node's neighbours who churned.

    This is the contagion signal: ``sum_n w_mn churned_n / sum_n w_mn``.
    Nodes without neighbours get 0.
    """
    churned = np.asarray(churned, dtype=np.float64)
    if len(churned) != graph.n_nodes:
        raise SimulationError(
            f"churned has {len(churned)} entries for {graph.n_nodes} nodes"
        )
    hit = np.zeros(graph.n_nodes)
    total = np.zeros(graph.n_nodes)
    a = graph.edges[:, 0]
    b = graph.edges[:, 1]
    np.add.at(hit, a, graph.weights * churned[b])
    np.add.at(hit, b, graph.weights * churned[a])
    np.add.at(total, a, graph.weights)
    np.add.at(total, b, graph.weights)
    return np.divide(hit, np.maximum(total, 1e-12))
