"""Collapsed Gibbs sampling for LDA, kept as the oracle for ``test_lda_graphalgo``.

``repro.ml.lda`` fits by belief propagation.  This token-level collapsed
Gibbs sampler targets the same smoothed-LDA posterior by a different
route — one token reassigned at a time, orders of magnitude slower — so
the two must agree on a corpus with a planted topic structure.  Tests
only — nothing under ``src/`` imports it.
"""

from __future__ import annotations

import itertools

import numpy as np


def gibbs_fit(
    docs,
    vocab_size: int,
    n_topics: int,
    alpha: float = 0.5,
    beta: float = 0.1,
    n_iter: int = 30,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """``(theta, phi)`` after ``n_iter`` sweeps: θ is ``(n_docs, K)``, φ is
    ``(K, vocab_size)``, both smoothed by their Dirichlet priors."""
    lengths = [len(doc) for doc in docs]
    tokens = np.fromiter(itertools.chain.from_iterable(docs), dtype=np.intp)
    doc_ids = np.repeat(np.arange(len(docs)), lengths)
    k = n_topics
    rng = np.random.default_rng(seed)

    assignments = rng.integers(0, k, size=len(tokens))
    doc_topic = np.zeros((len(docs), k), dtype=np.int64)
    word_topic = np.zeros((vocab_size, k), dtype=np.int64)
    topic_total = np.zeros(k, dtype=np.int64)
    np.add.at(doc_topic, (doc_ids, assignments), 1)
    np.add.at(word_topic, (tokens, assignments), 1)
    np.add.at(topic_total, assignments, 1)

    v_beta = vocab_size * beta
    for _ in range(n_iter):
        unit_draws = rng.random(len(tokens))
        for i in range(len(tokens)):
            w = tokens[i]
            d = doc_ids[i]
            z = assignments[i]
            doc_topic[d, z] -= 1
            word_topic[w, z] -= 1
            topic_total[z] -= 1
            probs = (doc_topic[d] + alpha) * (word_topic[w] + beta) / (
                topic_total + v_beta
            )
            cumulative = np.cumsum(probs)
            z = int(np.searchsorted(cumulative, unit_draws[i] * cumulative[-1]))
            z = min(z, k - 1)
            assignments[i] = z
            doc_topic[d, z] += 1
            word_topic[w, z] += 1
            topic_total[z] += 1

    theta = (doc_topic + alpha) / (doc_topic.sum(axis=1, keepdims=True) + k * alpha)
    phi = (word_topic + beta).T / (topic_total[:, np.newaxis] + v_beta)
    return theta, phi
