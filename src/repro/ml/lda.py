"""Latent Dirichlet allocation for the topic features of Section 4.1.3.

The paper runs LDA with K=10 over complaint and search-query corpora and uses
the document-topic matrix θ as compact features, inferred by belief
propagation: a vectorized message-passing / EM loop over the non-zero
(document, word) pairs, whose per-iteration scatter of responsibilities into
the document-topic and word-topic matrices is one ``np.bincount`` each.

Documents are bags of word ids.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from ..errors import ModelError, NotFittedError, TrainingError


class LatentDirichletAllocation:
    """Smoothed LDA fitted by belief propagation.

    Parameters
    ----------
    n_topics:
        K; the paper uses 10.
    alpha, beta:
        Symmetric Dirichlet hyper-parameters for θ and φ.
    n_iter:
        Message-passing iterations over the corpus.
    seed:
        RNG seed; the fit is deterministic given it.
    """

    def __init__(
        self,
        n_topics: int = 10,
        alpha: float = 0.5,
        beta: float = 0.1,
        n_iter: int = 30,
        seed: int = 0,
    ) -> None:
        if n_topics < 2:
            raise ModelError(f"n_topics must be >= 2, got {n_topics}")
        if alpha <= 0 or beta <= 0:
            raise ModelError("alpha and beta must be positive")
        if n_iter < 1:
            raise ModelError(f"n_iter must be >= 1, got {n_iter}")
        self.n_topics = n_topics
        self.alpha = alpha
        self.beta = beta
        self.n_iter = n_iter
        self.seed = seed
        self._phi: np.ndarray | None = None
        self._vocab_size: int | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit_transform(
        self, docs: Sequence[Sequence[int]], vocab_size: int
    ) -> np.ndarray:
        """Fit on a corpus and return θ, the (n_docs, K) topic mixture.

        Belief propagation [Zeng et al.] as vectorized message passing over
        the sparse doc-word matrix: each iteration updates the
        responsibilities ``μ(d,w,k) ∝ θ_dk φ_kw`` of every non-zero (doc,
        word) pair at once, then re-estimates θ and φ with Dirichlet
        smoothing — coordinate descent on the smoothed-LDA posterior (Eq. 2).
        """
        if vocab_size < 1:
            raise ModelError(f"vocab_size must be >= 1, got {vocab_size}")
        tokens, doc_ids = self._flatten(docs, vocab_size)
        if len(tokens) == 0:
            raise TrainingError("corpus is empty")
        n_docs = len(docs)
        # Collapse repeated (doc, word) pairs into counts.
        uniq, counts = np.unique(doc_ids * vocab_size + tokens, return_counts=True)
        pd = (uniq // vocab_size).astype(np.intp)
        pw = (uniq % vocab_size).astype(np.intp)
        weights = counts.astype(np.float64)
        k = self.n_topics
        rng = np.random.default_rng(self.seed)

        doc_cells, word_cells = _topic_cells(pd, k), _topic_cells(pw, k)
        theta = rng.dirichlet(np.ones(k), size=n_docs)
        phi = rng.dirichlet(np.ones(vocab_size), size=k)
        for _ in range(self.n_iter):
            resp = theta[pd]  # (nnz, k); a copy, updated in place
            resp *= phi[:, pw].T
            resp /= np.maximum(resp.sum(axis=1, keepdims=True), 1e-300)
            resp *= weights[:, None]
            doc_topic = _scatter(doc_cells, resp, n_docs)
            word_topic = _scatter(word_cells, resp, vocab_size)
            theta = (doc_topic + self.alpha) / (
                doc_topic.sum(axis=1, keepdims=True) + k * self.alpha
            )
            phi = (word_topic.T + self.beta) / (
                word_topic.sum(axis=0)[:, None] + vocab_size * self.beta
            )
        self._phi = phi
        self._vocab_size = vocab_size
        return theta

    # ------------------------------------------------------------------
    # Inference on new documents
    # ------------------------------------------------------------------

    def transform(self, docs: Sequence[Sequence[int]]) -> np.ndarray:
        """θ for unseen documents under the fitted φ (folding-in).

        Runs the same message passing as :meth:`fit_transform` with φ held fixed,
        vectorized across all documents.  Empty documents get the uniform
        prior mixture.
        """
        if self._phi is None or self._vocab_size is None:
            raise NotFittedError("LDA.transform called before fit_transform")
        k = self.n_topics
        n_docs = len(docs)
        pw, pd = self._flatten(docs, self._vocab_size)
        theta = np.full((n_docs, k), 1.0 / k)
        if len(pw) == 0:
            return theta
        phi_of_pair = self._phi[:, pw].T  # φ is fixed: gathered once
        doc_cells = _topic_cells(pd, k)
        for _ in range(10):
            resp = theta[pd]
            resp *= phi_of_pair
            resp /= np.maximum(resp.sum(axis=1, keepdims=True), 1e-300)
            doc_topic = _scatter(doc_cells, resp, n_docs)
            theta = (doc_topic + self.alpha) / (
                doc_topic.sum(axis=1, keepdims=True) + k * self.alpha
            )
        return theta

    @property
    def topic_word(self) -> np.ndarray:
        """φ, the (K, vocab) topic-word distribution."""
        if self._phi is None:
            raise NotFittedError("LDA has not been fitted")
        return self._phi

    def top_words(self, topic: int, n: int = 10) -> list[int]:
        """Word ids with the highest probability under one topic."""
        phi = self.topic_word
        if not 0 <= topic < self.n_topics:
            raise ModelError(f"topic {topic} out of range")
        return np.argsort(-phi[topic])[:n].tolist()

    @staticmethod
    def _flatten(
        docs: Sequence[Sequence[int]], vocab_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(word id, document index)`` of every token, in corpus order."""
        lengths = np.fromiter(map(len, docs), dtype=np.intp, count=len(docs))
        tokens = np.fromiter(
            itertools.chain.from_iterable(docs), dtype=np.intp, count=lengths.sum()
        )
        if len(tokens) and not 0 <= tokens.min() <= tokens.max() < vocab_size:
            raise ModelError("word id out of vocabulary range")
        return tokens, np.repeat(np.arange(len(docs)), lengths)


def _topic_cells(rows: np.ndarray, n_topics: int) -> np.ndarray:
    """Flat ``(row, topic)`` cell of every entry of a ``(len(rows), K)`` operand."""
    return (rows[:, None] * n_topics + np.arange(n_topics)).ravel()


def _scatter(cells: np.ndarray, resp: np.ndarray, n_rows: int) -> np.ndarray:
    """``out[row_i] += resp[i]`` from zeros, as one ``bincount`` over cells.

    The same sums as ``np.add.at(out, rows, resp)``, whose 2-D operand takes
    numpy's slow unbuffered path: ``bincount`` walks ``resp`` in the same
    order and adds into each cell starting from the same 0.0, so every sum
    is bit-identical.  The result is C-contiguous ``(n_rows, K)``, so the
    row reductions that follow keep their summation order as well.
    """
    k = resp.shape[1]
    flat = np.bincount(cells, weights=resp.ravel(), minlength=n_rows * k)
    return flat.reshape(n_rows, k)
