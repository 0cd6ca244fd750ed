"""Complaint and search-query text generation (Section 4.1.3 substrate).

Both corpora are topic-structured bags of words so that LDA can compress
them into informative topic features:

* **search queries** — most customers emit everyday topics (news, shopping,
  video, games); customers with churn intent mix in a *porting* topic
  (competitor names, hotline numbers, new-handset comparisons), which is the
  paper's observation that potential churners "search other operators'
  portal / hotline / new handset";
* **complaints** — topics over network quality, billing disputes and service
  attitude; pre-churn customers complain only slightly more (the paper finds
  complaints are a weak early signal).
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError


def _make_vocab(prefix: str, topics: int, words_per_topic: int) -> list[str]:
    return [
        f"{prefix}_t{t}_w{w}"
        for t in range(topics)
        for w in range(words_per_topic)
    ]


class TopicCorpusGenerator:
    """Generates bag-of-word documents from a fixed topic-word structure.

    Topic ``intent_topic`` is the churn-signal topic; a document's mixture
    puts ``intent_strength`` of its mass there when the author has churn
    intent.
    """

    def __init__(
        self,
        prefix: str,
        n_topics: int,
        words_per_topic: int,
        intent_topic: int,
        doc_length: tuple[int, int],
        topic_sharpness: float = 0.85,
    ) -> None:
        if not 0 <= intent_topic < n_topics:
            raise SimulationError(
                f"intent_topic {intent_topic} out of range for {n_topics} topics"
            )
        lo, hi = doc_length
        if not 0 <= lo <= hi:
            raise SimulationError(
                f"doc_length must satisfy 0 <= lo <= hi, got {doc_length}"
            )
        self.vocab = _make_vocab(prefix, n_topics, words_per_topic)
        self.n_topics = n_topics
        self.words_per_topic = words_per_topic
        self.intent_topic = intent_topic
        self.doc_length = doc_length
        # Topic-word distributions: each topic concentrates on its own block
        # of the vocabulary with (1 - sharpness) mass spread uniformly.
        v = len(self.vocab)
        self._phi = np.full((n_topics, v), (1 - topic_sharpness) / v)
        for t in range(n_topics):
            block = slice(t * words_per_topic, (t + 1) * words_per_topic)
            self._phi[t, block] += topic_sharpness / words_per_topic
        self._phi /= self._phi.sum(axis=1, keepdims=True)
        self._phi_cdf = np.cumsum(self._phi, axis=1)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def sample_docs(
        self,
        intent: np.ndarray,
        intent_strength: float,
        rng: np.random.Generator,
    ) -> list[str]:
        """One space-joined document per author.

        ``intent`` in [0, 1] per author scales how much of the document's
        topic mass shifts onto the intent topic.

        The generator stream per author is ``dirichlet(alpha)``, then
        ``integers(lo, hi + 1)`` for the length ``L``, then ``2 L``
        uniforms: the first ``L`` pick the topics exactly as
        ``rng.choice(n_topics, size=L, p=theta)`` would (right-sided search
        of the normalized cumulative mixture), the last ``L`` pick each
        word by inverse CDF within its topic.  Only the draws run per
        author; the topic and word lookups run once per call.
        """
        intent = np.asarray(intent, dtype=np.float64)
        n = len(intent)
        if n == 0:
            return []
        lo, hi = self.doc_length
        alpha = np.ones(self.n_topics)
        theta = np.empty((n, self.n_topics))
        lengths = np.empty(n, dtype=np.int64)
        draws: list[np.ndarray] = []
        intent_alpha = 1.0 + intent * intent_strength * self.n_topics
        for i, a in enumerate(intent_alpha.tolist()):
            alpha[self.intent_topic] = a
            theta[i] = rng.dirichlet(alpha)
            length = int(rng.integers(lo, hi + 1))
            lengths[i] = length
            draws.append(rng.random(2 * length))
        u = np.concatenate(draws)
        # Token j of author i reads uniform 2 * start_i + j for its topic
        # and 2 * start_i + L_i + j for its word (start_i = tokens before i).
        token_doc = np.repeat(np.arange(n), lengths)
        starts = np.cumsum(lengths) - lengths
        topic_at = np.arange(len(token_doc)) + starts[token_doc]
        topic_u = u[topic_at]
        word_u = u[topic_at + lengths[token_doc]]
        # Topic = count of cdf entries <= u: searchsorted(side="right") on
        # a non-decreasing cdf.
        cdf = np.cumsum(theta, axis=1)
        cdf /= cdf[:, -1:]
        topics = np.zeros(len(topic_u), dtype=np.int64)
        for t in range(self.n_topics):
            topics += cdf[token_doc, t] <= topic_u
        word_ids = np.empty(len(word_u), dtype=np.int64)
        for t in range(self.n_topics):
            at = topics == t
            word_ids[at] = np.searchsorted(self._phi_cdf[t], word_u[at])
        word_ids = np.minimum(word_ids, self.vocab_size - 1)
        tokens = [self.vocab[w] for w in word_ids.tolist()]
        ends = (starts + lengths).tolist()
        return [" ".join(tokens[s:e]) for s, e in zip(starts.tolist(), ends)]


def make_search_generator() -> TopicCorpusGenerator:
    """Search-query corpus: 8 topics, topic 0 = porting / churn intent."""
    return TopicCorpusGenerator(
        prefix="srch",
        n_topics=8,
        words_per_topic=40,
        intent_topic=0,
        doc_length=(8, 24),
    )


def make_complaint_generator() -> TopicCorpusGenerator:
    """Complaint corpus: 5 topics, topic 0 = pre-churn frustration."""
    return TopicCorpusGenerator(
        prefix="cmpl",
        n_topics=5,
        words_per_topic=30,
        intent_topic=0,
        doc_length=(5, 15),
    )
