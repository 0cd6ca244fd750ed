"""Feature preprocessing.

The paper feeds raw continuous features to the tree models but binarizes them
for LIBFM / LIBLINEAR ("linear models are more suitable for sparse binary
features", Section 5.8).  :class:`QuantileBinner` + :func:`one_hot` reproduce
that; :class:`Standardizer` supports the FM-based second-order selection.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError, NotFittedError


class Standardizer:
    """Column-wise z-scoring with constant-column safety."""

    def __init__(self) -> None:
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "Standardizer":
        x = _as_matrix(x)
        self._mean = x.mean(axis=0)
        std = x.std(axis=0)
        # Treat numerically-constant columns (std at float-epsilon level
        # relative to the magnitude) as constant: dividing by a ULP-sized
        # std would amplify cancellation noise into garbage z-scores.
        constant = std <= 1e-12 * (np.abs(self._mean) + 1.0)
        std[constant] = 1.0
        self._std = std
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self._mean is None or self._std is None:
            raise NotFittedError("Standardizer.transform called before fit")
        x = _as_matrix(x)
        if x.shape[1] != len(self._mean):
            raise ModelError(
                f"feature count {x.shape[1]} != fitted {len(self._mean)}"
            )
        return (x - self._mean) / self._std


class QuantileBinner:
    """Equal-frequency binning of continuous columns into integer codes."""

    def __init__(self, n_bins: int = 8) -> None:
        if n_bins < 2:
            raise ModelError(f"n_bins must be >= 2, got {n_bins}")
        self._n_bins = n_bins
        self._edges: list[np.ndarray] | None = None

    @property
    def n_bins(self) -> int:
        return self._n_bins

    def fit(self, x: np.ndarray) -> "QuantileBinner":
        x = _as_matrix(x)
        quantiles = np.linspace(0, 1, self._n_bins + 1)[1:-1]
        self._edges = [
            np.unique(np.quantile(x[:, j], quantiles)) for j in range(x.shape[1])
        ]
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Integer bin codes in ``[0, n_bins)`` per column."""
        if self._edges is None:
            raise NotFittedError("QuantileBinner.transform called before fit")
        x = _as_matrix(x)
        if x.shape[1] != len(self._edges):
            raise ModelError(
                f"feature count {x.shape[1]} != fitted {len(self._edges)}"
            )
        out = np.empty(x.shape, dtype=np.int64)
        for j, edges in enumerate(self._edges):
            out[:, j] = np.searchsorted(edges, x[:, j], side="right")
        return out

    def bin_counts(self) -> list[int]:
        """Number of distinct bins actually realized per column."""
        if self._edges is None:
            raise NotFittedError("QuantileBinner.bin_counts called before fit")
        return [len(edges) + 1 for edges in self._edges]


def one_hot(codes: np.ndarray, counts: list[int] | None = None) -> np.ndarray:
    """Expand integer bin codes into a dense 0/1 design matrix.

    ``counts[j]`` gives the number of categories of column ``j``; inferred
    from the data when omitted (then transform-time codes must not exceed
    fit-time ones — pass counts from :meth:`QuantileBinner.bin_counts`).
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ModelError(f"expected a 2-D code matrix, got {codes.ndim}-D")
    if counts is None:
        counts = [int(codes[:, j].max()) + 1 if len(codes) else 1
                  for j in range(codes.shape[1])]
    if len(counts) != codes.shape[1]:
        raise ModelError(
            f"counts has {len(counts)} entries for {codes.shape[1]} columns"
        )
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total = int(offsets[-1])
    out = np.zeros((codes.shape[0], total), dtype=np.float64)
    for j, width in enumerate(counts):
        clipped = np.clip(codes[:, j], 0, width - 1)
        out[np.arange(codes.shape[0]), offsets[j] + clipped] = 1.0
    return out


def _as_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ModelError(f"expected a 2-D feature matrix, got {x.ndim}-D")
    return x
