"""F7/F8: LDA topic features over complaint / search text (Section 4.1.3).

The extractor builds a vocabulary and fits K=10 LDA on the training months'
documents, then folds any month's documents into the fitted topics.  Unknown
words at transform time are dropped, matching the paper's fixed-vocabulary
setup (2 408 complaint / 15 974 search words after frequency pruning).
"""

from __future__ import annotations

import numpy as np

from ..datagen.simulator import TelcoWorld
from ..dataplat.observability import current_span, profiled
from ..errors import FeatureError, NotFittedError
from ..ml.lda import LatentDirichletAllocation
from .spec import FeatureMatrix

#: Category → source table mapping.
SOURCE_OF_CATEGORY = {
    "F7": "complaints",
    "F8": "search_logs",
}


class TopicFeatureExtractor:
    """Fits LDA on training months and emits θ features per month."""

    def __init__(
        self,
        category: str,
        n_topics: int = 10,
        n_iter: int = 25,
        min_word_count: int = 3,
        seed: int = 0,
    ) -> None:
        source = SOURCE_OF_CATEGORY.get(category)
        if source is None:
            raise FeatureError(
                f"unknown topic category {category!r}; "
                f"expected one of {sorted(SOURCE_OF_CATEGORY)}"
            )
        self.category = category
        self.source = source
        self.n_topics = n_topics
        self.n_iter = n_iter
        self.min_word_count = min_word_count
        self.seed = seed
        self._vocab: dict[str, int] | None = None
        self._lda: LatentDirichletAllocation | None = None

    @profiled("topic.fit")
    def fit(self, world: TelcoWorld, months: list[int]) -> "TopicFeatureExtractor":
        """Build the vocabulary and topic-word structure from these months."""
        docs: list[str] = []
        for month in months:
            table = world.month(month).tables[self.source]
            docs.extend(str(d) for d in table["doc"])
        counts: dict[str, int] = {}
        for doc in docs:
            for token in doc.split():
                counts[token] = counts.get(token, 0) + 1
        vocab = {
            token: idx
            for idx, token in enumerate(
                sorted(t for t, c in counts.items() if c >= self.min_word_count)
            )
        }
        current_span().set_tag("category", self.category).set_tag(
            "docs", len(docs)
        ).set_tag("vocab", len(vocab))
        if not vocab:
            raise FeatureError(
                f"no vocabulary survives pruning for {self.category} "
                f"(min_word_count={self.min_word_count})"
            )
        tokenized = [self._encode(doc, vocab) for doc in docs]
        # LDA cannot fit on an all-empty corpus; guaranteed non-empty here
        # because the vocabulary came from these very documents.
        lda = LatentDirichletAllocation(
            n_topics=self.n_topics, n_iter=self.n_iter, seed=self.seed
        )
        lda.fit_transform(tokenized, vocab_size=len(vocab))
        self._vocab = vocab
        self._lda = lda
        return self

    def transform(self, world: TelcoWorld, month: int) -> FeatureMatrix:
        """θ features for every customer of one month."""
        if self._vocab is None or self._lda is None:
            raise NotFittedError(
                f"TopicFeatureExtractor({self.category}) used before fit"
            )
        table = world.month(month).tables[self.source]
        docs = [self._encode(str(d), self._vocab) for d in table["doc"]]
        theta = self._lda.transform(docs)
        names = [
            f"{self.source}_topic_{k}" for k in range(self.n_topics)
        ]
        return FeatureMatrix(table["imsi"], names, theta)

    @staticmethod
    def _encode(doc: str, vocab: dict[str, int]) -> list[int]:
        return [vocab[t] for t in doc.split() if t in vocab]
