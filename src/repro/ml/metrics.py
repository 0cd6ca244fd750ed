"""Evaluation metrics of Section 5.1.

The paper evaluates ranked churner lists with four metrics: recall@U (Eq. 8),
precision@U (Eq. 9), the rank-statistic AUC (Eq. 10) and PR-AUC, preferred
for the heavy churner/non-churner imbalance.  ``pr_auc`` here is average
precision, the step-wise integral of the precision-recall curve.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError


def _validate(y_true: np.ndarray, y_score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_score = np.asarray(y_score, dtype=np.float64)
    if y_true.shape != y_score.shape:
        raise ModelError(
            f"shape mismatch: y_true {y_true.shape} vs y_score {y_score.shape}"
        )
    if y_true.ndim != 1:
        raise ModelError(f"expected 1-D arrays, got {y_true.ndim}-D")
    labels = set(np.unique(y_true).tolist())
    if not labels <= {0, 1, False, True}:
        raise ModelError(f"labels must be binary 0/1, got {sorted(labels)}")
    return y_true.astype(np.int64), y_score


def roc_auc(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Area under the ROC curve via the rank formula (paper Eq. 10).

    ``AUC = (sum of positive ranks - P(P+1)/2) / (P * N)`` with average ranks
    for ties, equivalent to the Mann-Whitney U statistic.
    """
    y_true, y_score = _validate(y_true, y_score)
    pos = int(y_true.sum())
    neg = len(y_true) - pos
    if pos == 0 or neg == 0:
        raise ModelError("roc_auc requires both classes present")
    order = np.argsort(y_score, kind="mergesort")
    ranks = np.empty(len(y_score), dtype=np.float64)
    ranks[order] = np.arange(1, len(y_score) + 1)
    # Average ranks over tied scores so the statistic is permutation-invariant.
    sorted_scores = y_score[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            avg = 0.5 * (i + j) + 1
            ranks[order[i : j + 1]] = avg
        i = j + 1
    pos_rank_sum = ranks[y_true == 1].sum()
    return float((pos_rank_sum - pos * (pos + 1) / 2) / (pos * neg))


def precision_recall_curve(
    y_true: np.ndarray, y_score: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(precision, recall, thresholds), descending thresholds.

    One point per distinct score; precision[i] and recall[i] describe the
    list "everything scored >= thresholds[i]".
    """
    y_true, y_score = _validate(y_true, y_score)
    pos = int(y_true.sum())
    if pos == 0:
        raise ModelError("precision_recall_curve requires positive instances")
    order = np.argsort(-y_score, kind="mergesort")
    sorted_true = y_true[order]
    sorted_scores = y_score[order]
    tp = np.cumsum(sorted_true)
    counts = np.arange(1, len(y_true) + 1)
    # Keep only the last index of each tied-score block.
    distinct = np.flatnonzero(np.diff(sorted_scores, append=np.nan) != 0)
    precision = tp[distinct] / counts[distinct]
    recall = tp[distinct] / pos
    return precision, recall, sorted_scores[distinct]


def average_precision(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Average precision: the step-function area under the PR curve."""
    precision, recall, _ = precision_recall_curve(y_true, y_score)
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - recall_prev) * precision))


def pr_auc(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Alias for :func:`average_precision` (the paper's PR-AUC)."""
    return average_precision(y_true, y_score)


def _top_u(y_true: np.ndarray, y_score: np.ndarray, u: int) -> np.ndarray:
    y_true, y_score = _validate(y_true, y_score)
    if u < 1:
        raise ModelError(f"U must be >= 1, got {u}")
    u = min(u, len(y_true))
    top = np.argsort(-y_score, kind="mergesort")[:u]
    return y_true[top]


def recall_at(y_true: np.ndarray, y_score: np.ndarray, u: int) -> float:
    """R@U (Eq. 8): true churners in the top U over all true churners."""
    y_true_arr, _ = _validate(y_true, y_score)
    pos = int(y_true_arr.sum())
    if pos == 0:
        raise ModelError("recall_at requires positive instances")
    return float(_top_u(y_true, y_score, u).sum() / pos)


def precision_at(y_true: np.ndarray, y_score: np.ndarray, u: int) -> float:
    """P@U (Eq. 9): true churners in the top U over U."""
    top = _top_u(y_true, y_score, u)
    return float(top.sum() / len(top))
