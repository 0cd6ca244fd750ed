"""Factorization machines (Eq. 3) — the LIBFM analogue.

Two roles in the paper:

1. a classifier baseline on binarized features (Section 5.8), and
2. the second-order feature selector of Section 4.1.4 — after training, the
   learned pairwise weight ``<v_i, v_j>`` ranks candidate feature products
   and the top 20 become the F9 features.

The model is ``ŷ = w0 + Σ w_i x_i + Σ_{i<j} <v_i, v_j> x_i x_j`` trained by
SGD with the O(k·nnz) reformulation
``Σ_{i<j} <v_i,v_j> x_i x_j = ½ Σ_f [(Σ_i v_if x_i)² − Σ_i v_if² x_i²]``.
"""

from __future__ import annotations

import numpy as np

from ..config import PAPER
from ..errors import ModelError, NotFittedError


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


class FactorizationMachine:
    """Second-order FM for binary classification.

    Parameters
    ----------
    n_factors:
        Latent dimension k of each ``v_i``.
    learning_rate:
        SGD step size (paper fixes 0.1).
    n_epochs:
        Full passes over the training data.
    l2:
        L2 penalty on ``w`` and ``V``.
    seed:
        Initialization / shuffling seed.
    """

    #: Standard deviation of the initial factor entries.
    init_scale = 0.01

    def __init__(
        self,
        n_factors: int = 8,
        learning_rate: float = PAPER.learning_rate,
        n_epochs: int = 10,
        l2: float = 1e-4,
        seed: int = 0,
    ) -> None:
        if n_factors < 1:
            raise ModelError(f"n_factors must be >= 1, got {n_factors}")
        if n_epochs < 1:
            raise ModelError(f"n_epochs must be >= 1, got {n_epochs}")
        if not 0 < learning_rate <= 1:
            raise ModelError(f"learning_rate must be in (0, 1], got {learning_rate}")
        self.n_factors = n_factors
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.l2 = l2
        self.seed = seed
        self._w0 = 0.0
        self._w: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "FactorizationMachine":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ModelError(f"x must be 2-D, got {x.ndim}-D")
        if len(x) != len(y):
            raise ModelError(f"x has {len(x)} rows but y has {len(y)}")
        labels = set(np.unique(y).tolist())
        if not labels <= {0.0, 1.0}:
            raise ModelError(f"labels must be 0/1, got {labels}")
        n, d = x.shape
        if sample_weight is None:
            sample_weight = np.ones(n)
        else:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        w0 = 0.0
        w = np.zeros(d)
        v = rng.normal(0.0, self.init_scale, size=(d, self.n_factors))

        lr = self.learning_rate
        batch = max(32, n // 64)
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start : start + batch]
                xb = x[rows]
                yb = y[rows]
                sb = sample_weight[rows]
                xv = xb @ v  # (b, k)
                x2v2 = (xb * xb) @ (v * v)  # (b, k)
                raw = w0 + xb @ w + 0.5 * (xv * xv - x2v2).sum(axis=1)
                p = _sigmoid(raw)
                g = sb * (p - yb) / len(rows)  # (b,)
                w0 -= lr * float(g.sum())
                w -= lr * (xb.T @ g + self.l2 * w)
                # dV_if = x_i * (xv_f) - v_if * x_i^2, batched:
                grad_v = xb.T @ (g[:, None] * xv) - v * (
                    (xb * xb).T @ g
                )[:, None]
                v -= lr * (grad_v + self.l2 * v)
        self._w0 = w0
        self._w = w
        self._v = v
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        w, v = self._params_checked()
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != len(w):
            raise ModelError(
                f"x has {x.shape[1]} features, model fitted with {len(w)}"
            )
        xv = x @ v
        x2v2 = (x * x) @ (v * v)
        return self._w0 + x @ w + 0.5 * (xv * xv - x2v2).sum(axis=1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(x))

    def pair_weight(self, i: int, j: int) -> float:
        """The learned second-order weight ``<v_i, v_j>`` for features i, j."""
        _, v = self._params_checked()
        if not (0 <= i < len(v) and 0 <= j < len(v)):
            raise ModelError(f"feature index out of range: ({i}, {j})")
        return float(v[i] @ v[j])

    def top_pairs(self, n_pairs: int) -> list[tuple[int, int, float]]:
        """The ``n_pairs`` feature pairs with the largest |<v_i, v_j>|.

        This is the paper's second-order feature selection (Section 4.1.4):
        rank all (N+1)N/2 pair weights and keep the strongest interactions.
        """
        _, v = self._params_checked()
        gram = v @ v.T
        d = len(v)
        iu = np.triu_indices(d, k=1)
        weights = gram[iu]
        order = np.argsort(-np.abs(weights))[:n_pairs]
        return [
            (int(iu[0][k]), int(iu[1][k]), float(weights[k])) for k in order
        ]

    def _params_checked(self) -> tuple[np.ndarray, np.ndarray]:
        if self._w is None or self._v is None:
            raise NotFittedError("FactorizationMachine has not been fitted")
        return self._w, self._v
