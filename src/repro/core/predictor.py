"""Classifier facade producing the monthly potential-churner list.

Wraps the four classifiers the paper benchmarks (Section 5.8) behind one
interface; linear models (LIBLINEAR / LIBFM analogues) get the paper's
discretize-and-binarize preprocessing automatically.  The business output is
the churn likelihood of :meth:`ChurnPredictor.predict_proba`, whose top-U
customers (cut by :mod:`repro.ml.metrics`) downstream retention campaigns
consume.
"""

from __future__ import annotations

import numpy as np

from ..config import ModelConfig
from ..dataplat.observability import span
from ..errors import ModelError, NotFittedError
from ..ml.fm import FactorizationMachine
from ..ml.forest import RandomForestClassifier
from ..ml.gbdt import GradientBoostedTrees
from ..ml.linear import LogisticRegression
from ..ml.preprocess import QuantileBinner, one_hot

#: Classifier names accepted by :class:`ChurnPredictor`.
CLASSIFIERS = ("rf", "gbdt", "liblinear", "libfm")


class ChurnPredictor:
    """Train on a labeled month, rank the next month's customers.

    Parameters
    ----------
    classifier:
        One of ``rf`` (the deployed choice), ``gbdt``, ``liblinear``,
        ``libfm``.
    config:
        Hyper-parameters, shared across classifiers for fair comparison.
    """

    def __init__(
        self,
        classifier: str = "rf",
        config: ModelConfig | None = None,
        seed: int = 0,
    ) -> None:
        if classifier not in CLASSIFIERS:
            raise ModelError(
                f"unknown classifier {classifier!r}; choose from {CLASSIFIERS}"
            )
        self.classifier = classifier
        self.config = config if config is not None else ModelConfig()
        self.seed = seed
        #: How the features behind this model were assembled: ``"full"``,
        #: or ``"degraded(F2,...)"`` when the pipeline dropped families
        #: (see :meth:`annotate_degradation`).  Campaign consumers read
        #: this off the ranked list's provenance.
        self.degradation_state = "full"
        self._model = None
        self._binner: QuantileBinner | None = None
        self._bin_counts: list[int] | None = None
        self._n_features = 0

    def annotate_degradation(self, state: str) -> "ChurnPredictor":
        """Record the pipeline degradation state this model was built under."""
        self.degradation_state = str(state)
        return self

    @property
    def is_degraded(self) -> bool:
        return self.degradation_state != "full"

    @property
    def is_linear(self) -> bool:
        """Whether this classifier uses binarized features (Section 5.8)."""
        return self.classifier in ("liblinear", "libfm")

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "ChurnPredictor":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._n_features = x.shape[1]
        cfg = self.config
        with span(
            "predictor.fit",
            classifier=self.classifier,
            rows=int(x.shape[0]),
            features=int(x.shape[1]),
        ):
            design = self._design(x, fit=True)
            if self.classifier == "rf":
                model = RandomForestClassifier(
                    n_trees=cfg.n_trees,
                    min_samples_leaf=cfg.min_samples_leaf,
                    max_depth=cfg.max_depth,
                    seed=self.seed,
                )
            elif self.classifier == "gbdt":
                model = GradientBoostedTrees(
                    n_trees=cfg.gbdt_trees,
                    learning_rate=cfg.learning_rate,
                    max_depth=4,
                    min_samples_leaf=max(cfg.min_samples_leaf, 10),
                    seed=self.seed,
                )
            elif self.classifier == "liblinear":
                model = LogisticRegression(
                    l2=1e-3, max_iter=cfg.linear_epochs * 5
                )
            else:  # libfm
                model = FactorizationMachine(
                    n_factors=cfg.fm_factors,
                    learning_rate=cfg.learning_rate,
                    n_epochs=cfg.fm_epochs,
                    seed=self.seed,
                )
            model.fit(design, y, sample_weight=sample_weight)
        self._model = model
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Churn likelihood per customer."""
        if self._model is None:
            raise NotFittedError("ChurnPredictor has not been fitted")
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self._n_features:
            raise ModelError(
                f"x has {x.shape[1]} features, fitted with {self._n_features}"
            )
        with span(
            "predictor.predict", classifier=self.classifier, rows=int(x.shape[0])
        ):
            return self._model.predict_proba(self._design(x, fit=False))

    @property
    def feature_importances_(self) -> np.ndarray:
        """RF feature importances (Eq. 7); only defined for ``rf``."""
        if self.classifier != "rf":
            raise ModelError(
                f"feature importances require the rf classifier, "
                f"not {self.classifier}"
            )
        if self._model is None:
            raise NotFittedError("ChurnPredictor has not been fitted")
        return self._model.feature_importances_

    def _design(self, x: np.ndarray, fit: bool) -> np.ndarray:
        if not self.is_linear:
            return x
        if fit:
            self._binner = QuantileBinner(n_bins=8).fit(x)
            self._bin_counts = self._binner.bin_counts()
        if self._binner is None or self._bin_counts is None:
            raise NotFittedError("ChurnPredictor has not been fitted")
        return one_hot(self._binner.transform(x), self._bin_counts)
