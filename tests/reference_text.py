"""The per-word corpus sampler, kept as the oracle for the bulk one.

This is how ``TopicCorpusGenerator.sample_docs`` drew its documents before
the bulk rewrite: per author one Dirichlet mixture, one length, one
``Generator.choice`` for the topics and one inverse-CDF ``searchsorted``
per word.  The bulk sampler must return the same strings and leave the
generator in the same state.  Tests only — nothing under ``src/`` imports
it.
"""

from __future__ import annotations

import numpy as np


def reference_sample_docs(
    gen,
    intent: np.ndarray,
    intent_strength: float,
    rng: np.random.Generator,
) -> list[str]:
    intent = np.asarray(intent, dtype=np.float64)
    lo, hi = gen.doc_length
    docs: list[str] = []
    base_alpha = np.ones(gen.n_topics)
    for i in range(len(intent)):
        alpha = base_alpha.copy()
        alpha[gen.intent_topic] += (
            intent[i] * intent_strength * gen.n_topics
        )
        theta = rng.dirichlet(alpha)
        length = int(rng.integers(lo, hi + 1))
        topics = rng.choice(gen.n_topics, size=length, p=theta)
        # Inverse-CDF word draws: one searchsorted per word, no O(V)
        # probability vector materialization.
        draws = rng.random(length)
        word_ids = [
            int(np.searchsorted(gen._phi_cdf[t], u))
            for t, u in zip(topics.tolist(), draws.tolist())
        ]
        docs.append(
            " ".join(
                gen.vocab[min(w, gen.vocab_size - 1)] for w in word_ids
            )
        )
    return docs
