"""From-scratch ML substrate.

The paper's classifiers (Section 4.2/5.8) and unsupervised feature extractors
(Section 4.1) re-implemented on numpy:

* :mod:`.metrics` — AUC (Eq. 10), PR-AUC, recall@U (Eq. 8), precision@U (Eq. 9)
* :mod:`.tree` / :mod:`.forest` — CART with Gini improvement (Eq. 5–6),
  Random Forest (Eq. 4) with feature importance (Eq. 7)
* :mod:`.gbdt` — gradient boosted decision trees
* :mod:`.linear` — L2-regularised logistic regression (LIBLINEAR analogue)
* :mod:`.fm` — factorization machines (Eq. 3, LIBFM analogue)
* :mod:`.lda` — latent Dirichlet allocation (belief propagation)
* :mod:`.graphalgo` — weighted PageRank (Eq. 1) and label propagation
* :mod:`.sampling` — the four imbalance treatments of Table 7
* :mod:`.preprocess` — standardization and quantile binning / one-hot
* :mod:`.calibration` — isotonic recalibration of churn likelihoods
* :mod:`.persistence` — forest serialization for the monthly retrain cycle
"""

from .calibration import IsotonicCalibrator
from .fm import FactorizationMachine
from .forest import RandomForestClassifier
from .gbdt import GradientBoostedTrees
from .graphalgo import label_propagation, pagerank
from .lda import LatentDirichletAllocation
from .linear import LogisticRegression
from .metrics import (
    average_precision,
    pr_auc,
    precision_at,
    recall_at,
    roc_auc,
)
from .sampling import rebalance
from .tree import DecisionTree

__all__ = [
    "DecisionTree",
    "FactorizationMachine",
    "IsotonicCalibrator",
    "GradientBoostedTrees",
    "LatentDirichletAllocation",
    "LogisticRegression",
    "RandomForestClassifier",
    "average_precision",
    "label_propagation",
    "pagerank",
    "pr_auc",
    "precision_at",
    "recall_at",
    "rebalance",
    "roc_auc",
]
