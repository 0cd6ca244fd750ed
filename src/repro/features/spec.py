"""Feature matrix abstraction and the F1..F9 category registry."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FeatureError

#: Category ids in paper order.
ALL_CATEGORIES = ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9")

#: What each category is (paper Table 2 / Section 4.1).
CATEGORY_INFO = {
    "F1": "baseline BSS features",
    "F2": "CS voice KPI/KQI features",
    "F3": "PS data KPI/KQI + location features",
    "F4": "call graph PageRank + label propagation",
    "F5": "message graph PageRank + label propagation",
    "F6": "co-occurrence graph PageRank + label propagation",
    "F7": "complaint text topic features",
    "F8": "search query topic features",
    "F9": "FM-selected second-order features",
}


@dataclass
class FeatureMatrix:
    """A named, IMSI-aligned block of features.

    ``values`` is (n_customers, n_features) float64; ``names`` labels the
    columns; ``imsi`` identifies the rows.
    """

    imsi: np.ndarray
    names: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.imsi = np.asarray(self.imsi, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise FeatureError(f"values must be 2-D, got {self.values.ndim}-D")
        if len(self.imsi) != len(self.values):
            raise FeatureError(
                f"{len(self.imsi)} imsi rows vs {len(self.values)} value rows"
            )
        if len(self.names) != self.values.shape[1]:
            raise FeatureError(
                f"{len(self.names)} names vs {self.values.shape[1]} columns"
            )
        if len(set(self.names)) != len(self.names):
            dupes = {n for n in self.names if self.names.count(n) > 1}
            raise FeatureError(f"duplicate feature names: {sorted(dupes)}")

    @property
    def n_rows(self) -> int:
        return len(self.imsi)

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise FeatureError(
                f"unknown feature {name!r}; have {len(self.names)} features"
            ) from None
        return self.values[:, j]

    def select(self, names: list[str]) -> "FeatureMatrix":
        """Project onto a subset of feature columns."""
        cols = [self.names.index(n) for n in names]
        return FeatureMatrix(self.imsi, list(names), self.values[:, cols])

    def hstack(self, other: "FeatureMatrix") -> "FeatureMatrix":
        """Column-concatenate two blocks over the same rows."""
        if not np.array_equal(self.imsi, other.imsi):
            raise FeatureError("hstack requires identical imsi order")
        overlap = set(self.names) & set(other.names)
        if overlap:
            raise FeatureError(f"duplicate features in hstack: {sorted(overlap)}")
        return FeatureMatrix(
            self.imsi,
            list(self.names) + list(other.names),
            np.hstack([self.values, other.values]),
        )

    @staticmethod
    def concat(blocks: list["FeatureMatrix"]) -> "FeatureMatrix":
        """hstack a list of aligned blocks."""
        if not blocks:
            raise FeatureError("concat requires at least one block")
        out = blocks[0]
        for block in blocks[1:]:
            out = out.hstack(block)
        return out
