"""L2-regularised logistic regression — the LIBLINEAR baseline.

The paper benchmarks LIBLINEAR (L2-regularised LR) on discretized binary
features (Section 5.8).  This implementation minimizes

    L(w) = (1/n) Σ_i s_i · log(1 + exp(-ŷ_i)) + (λ/2) ||w||²

with full-batch gradient descent plus backtracking line search — simple,
deterministic and dependency-free; training loss is guaranteed non-increasing,
which the tests assert.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError, NotFittedError


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


class LogisticRegression:
    """Binary LR with L2 penalty and optional instance weights.

    Parameters
    ----------
    l2:
        Regularization strength λ (the intercept is not penalized).
    max_iter:
        Gradient-descent steps.
    """

    #: Stop when the gradient's infinity norm falls below this.
    tol = 1e-6

    def __init__(self, l2: float = 1e-3, max_iter: int = 200) -> None:
        if l2 < 0:
            raise ModelError(f"l2 must be >= 0, got {l2}")
        if max_iter < 1:
            raise ModelError(f"max_iter must be >= 1, got {max_iter}")
        self.l2 = l2
        self.max_iter = max_iter
        self._weights: np.ndarray | None = None
        self._intercept = 0.0
        self._loss_history: list[float] = []

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "LogisticRegression":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ModelError(f"x must be 2-D, got {x.ndim}-D")
        if len(x) != len(y):
            raise ModelError(f"x has {len(x)} rows but y has {len(y)}")
        labels = set(np.unique(y).tolist())
        if not labels <= {0.0, 1.0}:
            raise ModelError(f"labels must be 0/1, got {labels}")
        if sample_weight is None:
            sample_weight = np.ones(len(y))
        else:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
        s = sample_weight / sample_weight.sum()

        w = np.zeros(x.shape[1])
        b = 0.0
        step = 1.0
        self._loss_history = [self._loss(x, y, s, w, b)]
        for _ in range(self.max_iter):
            p = _sigmoid(x @ w + b)
            error = s * (p - y)
            grad_w = x.T @ error + self.l2 * w
            grad_b = float(error.sum())
            grad_norm = max(np.abs(grad_w).max(), abs(grad_b))
            if grad_norm < self.tol:
                break
            # Backtracking line search on the objective.
            current = self._loss_history[-1]
            step = min(step * 2.0, 1e4)
            while step > 1e-12:
                w_try = w - step * grad_w
                b_try = b - step * grad_b
                loss_try = self._loss(x, y, s, w_try, b_try)
                if loss_try <= current:
                    w, b = w_try, b_try
                    self._loss_history.append(loss_try)
                    break
                step *= 0.5
            else:
                break
        self._weights = w
        self._intercept = b
        return self

    def _loss(
        self,
        x: np.ndarray,
        y: np.ndarray,
        s: np.ndarray,
        w: np.ndarray,
        b: float,
    ) -> float:
        z = x @ w + b
        # log(1 + exp(-m)) where m is the margin, numerically stable.
        margin = np.where(y == 1, z, -z)
        nll = np.logaddexp(0.0, -margin)
        return float((s * nll).sum() + 0.5 * self.l2 * (w @ w))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        w = self._weights_checked()
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != len(w):
            raise ModelError(
                f"x has {x.shape[1]} features, model fitted with {len(w)}"
            )
        return _sigmoid(x @ w + self._intercept)

    @property
    def coef_(self) -> np.ndarray:
        return self._weights_checked()

    @property
    def intercept_(self) -> float:
        self._weights_checked()
        return self._intercept

    @property
    def loss_history(self) -> list[float]:
        """Objective value per accepted step (non-increasing)."""
        return list(self._loss_history)

    def _weights_checked(self) -> np.ndarray:
        if self._weights is None:
            raise NotFittedError("LogisticRegression has not been fitted")
        return self._weights
