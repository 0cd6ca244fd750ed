"""Graph feature algorithms of Section 4.1.2.

Both operate on weighted undirected graphs over customers, given as an edge
list.  :func:`pagerank` implements the paper's Eq. 1 — weighted PageRank with
damping 0.85, initial value 1 — and :func:`label_propagation` the 3-step
iteration of Zhu & Ghahramani used to spread churner labels.

Sparse matrices (scipy) keep both linear in the number of edges.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..errors import ModelError


def _adjacency(
    edges: np.ndarray, weights: np.ndarray, n_nodes: int
) -> sparse.csr_matrix:
    """Symmetric weighted adjacency from an undirected edge list."""
    edges = np.asarray(edges, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ModelError(f"edges must be (m, 2), got {edges.shape}")
    if len(weights) != len(edges):
        raise ModelError(
            f"{len(edges)} edges but {len(weights)} weights"
        )
    if len(edges) and (edges.min() < 0 or edges.max() >= n_nodes):
        raise ModelError("edge endpoint out of range")
    if np.any(weights < 0):
        raise ModelError("edge weights must be non-negative")
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    vals = np.concatenate([weights, weights])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))


def pagerank(
    edges: np.ndarray,
    weights: np.ndarray,
    n_nodes: int,
    damping: float = 0.85,
) -> np.ndarray:
    """Weighted PageRank (paper Eq. 1).

    ``x_m = (1-d)/N + d * sum_n x_n * w_mn / deg_n`` — each neighbour ``n``
    distributes its score proportionally to its edge weights.  Isolated nodes
    keep the teleport mass ``(1-d)/N``.
    """
    if not 0 < damping < 1:
        raise ModelError(f"damping must be in (0, 1), got {damping}")
    adj = _adjacency(edges, weights, n_nodes)
    degree = np.asarray(adj.sum(axis=1)).ravel()
    inv_degree = np.where(degree > 0, 1.0 / np.maximum(degree, 1e-300), 0.0)
    # Column-stochastic transition: P[m, n] = w_mn / deg_n.
    transition = adj.multiply(inv_degree[np.newaxis, :]).tocsr()
    x = np.ones(n_nodes, dtype=np.float64)
    teleport = (1.0 - damping) / n_nodes
    for _ in range(100):
        x_new = teleport + damping * (transition @ x)
        if np.abs(x_new - x).max() < 1e-8:
            return x_new
        x = x_new
    return x


def label_propagation(
    edges: np.ndarray,
    weights: np.ndarray,
    n_nodes: int,
    seed_labels: dict[int, int],
    n_classes: int = 2,
    max_iter: int = 50,
) -> np.ndarray:
    """Semi-supervised label propagation (Zhu & Ghahramani).

    The paper's 3 steps per iteration: ``Y <- W Y``; row-normalize ``Y``;
    clamp the seed rows.  Returns the (n_nodes, n_classes) probability
    matrix; for churn, column 1 is the propagated churner probability.
    """
    if n_classes < 2:
        raise ModelError(f"n_classes must be >= 2, got {n_classes}")
    for node, label in seed_labels.items():
        if not 0 <= node < n_nodes:
            raise ModelError(f"seed node {node} out of range")
        if not 0 <= label < n_classes:
            raise ModelError(f"seed label {label} out of range")
    adj = _adjacency(edges, weights, n_nodes)
    y = np.full((n_nodes, n_classes), 1.0 / n_classes)
    seed_rows = np.asarray(sorted(seed_labels), dtype=np.int64)
    seed_matrix = np.zeros((len(seed_rows), n_classes))
    for i, node in enumerate(seed_rows):
        seed_matrix[i, seed_labels[int(node)]] = 1.0
    if len(seed_rows):
        y[seed_rows] = seed_matrix
    for _ in range(max_iter):
        y_new = adj @ y
        totals = y_new.sum(axis=1, keepdims=True)
        # Disconnected nodes receive no mass; keep their previous belief.
        zero = totals.ravel() == 0
        y_new = np.divide(y_new, np.where(totals == 0, 1.0, totals))
        y_new[zero] = y[zero]
        if len(seed_rows):
            y_new[seed_rows] = seed_matrix
        if np.abs(y_new - y).max() < 1e-6:
            return y_new
        y = y_new
    return y
