"""F9: FM-selected second-order features (Section 4.1.4).

Out of the (N+1)N/2 possible products of baseline features, a factorization
machine is trained on the churn labels; the 20 pairs with the strongest
learned interaction weights ``<v_i, v_j>`` become explicit product features.
Products are computed on standardized columns so no single wide-scaled
feature dominates.
"""

from __future__ import annotations

import numpy as np

from ..config import PAPER
from ..dataplat.observability import profiled
from ..errors import FeatureError, NotFittedError
from ..ml.fm import FactorizationMachine
from ..ml.preprocess import Standardizer
from .spec import FeatureMatrix


class SecondOrderSelector:
    """Selects and materializes the top-k interaction features."""

    def __init__(
        self,
        n_pairs: int = PAPER.second_order_features,
        n_factors: int = 8,
        n_epochs: int = 10,
        seed: int = 0,
    ) -> None:
        if n_pairs < 1:
            raise FeatureError(f"n_pairs must be >= 1, got {n_pairs}")
        self.n_pairs = n_pairs
        self.n_factors = n_factors
        self.n_epochs = n_epochs
        self.seed = seed
        self._standardizer: Standardizer | None = None
        self._pairs: list[tuple[int, int]] | None = None
        self._base_names: list[str] | None = None

    @profiled("second_order.fit")
    def fit(self, base: FeatureMatrix, labels: np.ndarray) -> "SecondOrderSelector":
        """Train the FM on the baseline block and pick the top pairs."""
        labels = np.asarray(labels)
        if len(labels) != base.n_rows:
            raise FeatureError(
                f"{len(labels)} labels for {base.n_rows} feature rows"
            )
        standardizer = Standardizer().fit(base.values)
        z = standardizer.transform(base.values)
        fm = FactorizationMachine(
            n_factors=self.n_factors, n_epochs=self.n_epochs, seed=self.seed
        )
        fm.fit(z, labels)
        top = fm.top_pairs(self.n_pairs)
        self._standardizer = standardizer
        self._pairs = [(i, j) for i, j, _ in top]
        self._base_names = list(base.names)
        return self

    @property
    def selected_pairs(self) -> list[tuple[str, str]]:
        """The chosen pairs as feature-name tuples."""
        if self._pairs is None or self._base_names is None:
            raise NotFittedError("SecondOrderSelector used before fit")
        return [
            (self._base_names[i], self._base_names[j]) for i, j in self._pairs
        ]

    def transform(self, base: FeatureMatrix) -> FeatureMatrix:
        """Product features for any month's baseline block."""
        if (
            self._pairs is None
            or self._standardizer is None
            or self._base_names is None
        ):
            raise NotFittedError("SecondOrderSelector used before fit")
        if list(base.names) != self._base_names:
            raise FeatureError(
                "baseline feature names differ from the fitted ones"
            )
        z = self._standardizer.transform(base.values)
        columns = [z[:, i] * z[:, j] for i, j in self._pairs]
        names = [
            f"x2_{self._base_names[i]}__{self._base_names[j]}"
            for i, j in self._pairs
        ]
        return FeatureMatrix(base.imsi, names, np.column_stack(columns))
