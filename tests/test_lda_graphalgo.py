"""Unit tests for LDA and the graph algorithms (PageRank, label propagation)."""

import numpy as np
import pytest
from reference_lda import gibbs_fit

from repro.errors import ModelError, NotFittedError, TrainingError
from repro.ml.graphalgo import label_propagation, pagerank
from repro.ml.lda import LatentDirichletAllocation


def two_topic_corpus(n_docs: int = 200, seed: int = 0):
    """Docs alternating between two disjoint vocabulary blocks."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        base = 0 if i % 2 == 0 else 10
        docs.append(list(rng.integers(base, base + 10, size=15)))
    return docs


def bp_theta(docs, vocab_size, n_topics, n_iter, seed):
    lda = LatentDirichletAllocation(n_topics=n_topics, n_iter=n_iter, seed=seed)
    return lda.fit_transform(docs, vocab_size=vocab_size)


def gibbs_theta(docs, vocab_size, n_topics, n_iter, seed):
    return gibbs_fit(docs, vocab_size, n_topics, n_iter=n_iter, seed=seed)[0]


class TestLDA:
    @pytest.mark.parametrize("fit", [bp_theta, gibbs_theta], ids=["bp", "gibbs"])
    def test_recovers_topic_structure(self, fit):
        docs = two_topic_corpus()
        theta = fit(docs, vocab_size=20, n_topics=2, n_iter=30, seed=0)
        even = theta[::2].argmax(axis=1)
        odd = theta[1::2].argmax(axis=1)
        purity = max((even == 0).mean(), (even == 1).mean())
        assert purity > 0.9
        assert (even[0] != odd[0]) or purity > 0.95

    def test_bp_and_gibbs_split_documents_alike(self):
        """BP and the Gibbs oracle put the planted corpus's documents into
        the same two groups, up to a swap of the topic labels."""
        docs = two_topic_corpus()
        bp = bp_theta(docs, vocab_size=20, n_topics=2, n_iter=30, seed=0)
        gibbs = gibbs_theta(docs, vocab_size=20, n_topics=2, n_iter=30, seed=0)
        bp_group = bp.argmax(axis=1)
        gibbs_group = gibbs.argmax(axis=1)
        planted = np.arange(len(docs)) % 2
        assert np.array_equal(bp_group, planted) or np.array_equal(
            bp_group, 1 - planted
        )
        assert np.array_equal(bp_group, gibbs_group) or np.array_equal(
            bp_group, 1 - gibbs_group
        )

    def test_theta_rows_are_distributions(self):
        docs = two_topic_corpus(50)
        lda = LatentDirichletAllocation(n_topics=3, n_iter=10, seed=0)
        theta = lda.fit_transform(docs, vocab_size=20)
        assert theta.shape == (50, 3)
        assert np.allclose(theta.sum(axis=1), 1.0)
        assert np.all(theta > 0)

    def test_phi_rows_are_distributions(self):
        docs = two_topic_corpus(50)
        lda = LatentDirichletAllocation(n_topics=2, n_iter=10, seed=0)
        lda.fit_transform(docs, vocab_size=20)
        phi = lda.topic_word
        assert phi.shape == (2, 20)
        assert np.allclose(phi.sum(axis=1), 1.0)

    def test_transform_new_documents(self):
        docs = two_topic_corpus()
        lda = LatentDirichletAllocation(n_topics=2, n_iter=20, seed=0)
        theta_fit = lda.fit_transform(docs, vocab_size=20)
        theta_new = lda.transform([list(range(0, 10)), list(range(10, 20))])
        # The two probe docs land on opposite topics.
        assert theta_new[0].argmax() != theta_new[1].argmax()
        assert np.allclose(theta_new.sum(axis=1), 1.0)
        del theta_fit

    def test_transform_empty_doc_uniform(self):
        docs = two_topic_corpus(20)
        lda = LatentDirichletAllocation(n_topics=2, n_iter=5, seed=0)
        lda.fit_transform(docs, vocab_size=20)
        theta = lda.transform([[]])
        assert np.allclose(theta[0], 0.5)

    def test_top_words_belong_to_topic_block(self):
        docs = two_topic_corpus()
        lda = LatentDirichletAllocation(n_topics=2, n_iter=30, seed=0)
        lda.fit_transform(docs, vocab_size=20)
        tops = set(lda.top_words(0, 5))
        assert tops <= set(range(0, 10)) or tops <= set(range(10, 20))

    def test_empty_corpus_rejected(self):
        lda = LatentDirichletAllocation(n_topics=2)
        with pytest.raises(TrainingError):
            lda.fit_transform([[], []], vocab_size=5)

    def test_out_of_vocab_rejected(self):
        lda = LatentDirichletAllocation(n_topics=2)
        with pytest.raises(ModelError):
            lda.fit_transform([[99]], vocab_size=5)

    def test_transform_before_fit(self):
        with pytest.raises(NotFittedError):
            LatentDirichletAllocation(n_topics=2).transform([[1]])

    def test_parameter_validation(self):
        with pytest.raises(ModelError):
            LatentDirichletAllocation(n_topics=1)
        with pytest.raises(ModelError):
            LatentDirichletAllocation(alpha=0)


def add_at_fit_bp(lda, docs, vocab_size):
    """The BP fit as first written, scattering with ``np.add.at``: the
    oracle for the bincount scatter.  Returns ``(theta, phi)``."""
    pairs = [(d, int(w)) for d, doc in enumerate(docs) for w in doc]
    keys = np.array([d * vocab_size + w for d, w in pairs], dtype=np.int64)
    uniq, counts = np.unique(keys, return_counts=True)
    pd, pw = uniq // vocab_size, uniq % vocab_size
    weights = counts.astype(np.float64)
    k = lda.n_topics
    rng = np.random.default_rng(lda.seed)
    theta = rng.dirichlet(np.ones(k), size=len(docs))
    phi = rng.dirichlet(np.ones(vocab_size), size=k)
    for _ in range(lda.n_iter):
        resp = theta[pd] * phi[:, pw].T
        resp /= np.maximum(resp.sum(axis=1, keepdims=True), 1e-300)
        resp *= weights[:, None]
        doc_topic = np.zeros((len(docs), k))
        np.add.at(doc_topic, pd, resp)
        word_topic = np.zeros((vocab_size, k))
        np.add.at(word_topic, pw, resp)
        theta = (doc_topic + lda.alpha) / (
            doc_topic.sum(axis=1, keepdims=True) + k * lda.alpha
        )
        phi = (word_topic.T + lda.beta) / (
            word_topic.sum(axis=0)[:, None] + vocab_size * lda.beta
        )
    return theta, phi


def add_at_transform(lda, docs):
    """Folding-in as first written (token lists, ``np.add.at``)."""
    k = lda.n_topics
    pd = np.array([d for d, doc in enumerate(docs) for _ in doc], dtype=np.intp)
    pw = np.array([int(w) for doc in docs for w in doc], dtype=np.intp)
    theta = np.full((len(docs), k), 1.0 / k)
    for _ in range(10):
        resp = theta[pd] * lda.topic_word[:, pw].T
        resp /= np.maximum(resp.sum(axis=1, keepdims=True), 1e-300)
        doc_topic = np.zeros((len(docs), k))
        np.add.at(doc_topic, pd, resp)
        theta = (doc_topic + lda.alpha) / (
            doc_topic.sum(axis=1, keepdims=True) + k * lda.alpha
        )
    return theta


def ragged_corpus(n_docs=120, vocab_size=40, seed=5):
    """Zipf-ish docs with empty documents and repeated (doc, word) pairs."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        if i % 7 == 0:
            docs.append([])
            continue
        words = np.minimum(rng.zipf(1.6, size=rng.integers(1, 30)), vocab_size) - 1
        docs.append(words.tolist())
    assert any(len(set(d)) < len(d) for d in docs)
    return docs


class TestLDAScatterParity:
    """bincount scatter == ``np.add.at`` scatter, bit for bit."""

    def test_fit_bp_equals_add_at_oracle(self):
        docs = ragged_corpus()
        lda = LatentDirichletAllocation(n_topics=6, n_iter=12, seed=3)
        theta = lda.fit_transform(docs, vocab_size=40)
        want_theta, want_phi = add_at_fit_bp(lda, docs, 40)
        assert np.array_equal(theta, want_theta)
        assert np.array_equal(lda.topic_word, want_phi)
        # An empty document stays at its smoothed prior.
        assert np.array_equal(theta[0], np.full(6, 1 / 6))

    def test_transform_equals_add_at_oracle(self):
        lda = LatentDirichletAllocation(n_topics=6, n_iter=12, seed=3)
        lda.fit_transform(ragged_corpus(), vocab_size=40)
        unseen = ragged_corpus(n_docs=75, seed=9)
        assert np.array_equal(lda.transform(unseen), add_at_transform(lda, unseen))

    def test_transform_accepts_numpy_documents(self):
        lda = LatentDirichletAllocation(n_topics=3, n_iter=5, seed=0)
        lda.fit_transform(two_topic_corpus(30), vocab_size=20)
        docs = [[1, 1, 12], [], [3]]
        as_arrays = [np.asarray(d, dtype=np.int64) for d in docs]
        assert np.array_equal(lda.transform(as_arrays), lda.transform(docs))

    def test_transform_out_of_vocab_rejected(self):
        lda = LatentDirichletAllocation(n_topics=2, n_iter=5, seed=0)
        lda.fit_transform(two_topic_corpus(20), vocab_size=20)
        for bad in (20, -1):
            with pytest.raises(ModelError, match="out of vocabulary"):
                lda.transform([[1, 2], [bad]])

    def test_transform_all_empty_is_uniform_prior(self):
        lda = LatentDirichletAllocation(n_topics=4, n_iter=5, seed=0)
        lda.fit_transform(two_topic_corpus(20), vocab_size=20)
        assert np.array_equal(lda.transform([[], [], []]), np.full((3, 4), 0.25))
        assert lda.transform([]).shape == (0, 4)


class TestPageRank:
    def test_scores_sum_to_one(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        scores = pagerank(edges, np.ones(3), 3)
        assert scores.sum() == pytest.approx(1.0, abs=1e-4)

    def test_symmetric_cycle_is_uniform(self):
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        scores = pagerank(edges, np.ones(3), 3)
        assert np.allclose(scores, scores[0])

    def test_hub_scores_highest(self):
        # Star graph: node 0 connected to 1..4.
        edges = np.array([[0, i] for i in range(1, 5)])
        scores = pagerank(edges, np.ones(4), 5)
        assert scores.argmax() == 0

    def test_isolated_node_gets_teleport_mass(self):
        edges = np.array([[0, 1]])
        scores = pagerank(edges, np.ones(1), 3, damping=0.85)
        assert scores[2] == pytest.approx(0.15 / 3, abs=1e-6)

    def test_weights_shift_mass(self):
        # Node 1 distributes to 0 (heavy) and 2 (light).
        edges = np.array([[0, 1], [1, 2]])
        scores = pagerank(edges, np.array([10.0, 1.0]), 3)
        assert scores[0] > scores[2]

    def test_validation(self):
        with pytest.raises(ModelError):
            pagerank(np.array([[0, 5]]), np.ones(1), 3)
        with pytest.raises(ModelError):
            pagerank(np.array([[0, 1]]), np.array([-1.0]), 2)
        with pytest.raises(ModelError):
            pagerank(np.array([[0, 1]]), np.ones(1), 2, damping=1.5)


class TestLabelPropagation:
    def test_seeds_are_clamped(self):
        edges = np.array([[0, 1], [1, 2]])
        beliefs = label_propagation(edges, np.ones(2), 3, {0: 1})
        assert beliefs[0, 1] == pytest.approx(1.0)

    def test_propagation_decays_with_distance(self):
        # Chain 0-1-2-3-4 with churner seed at 0 and non-churner at 4.
        edges = np.array([[i, i + 1] for i in range(4)])
        beliefs = label_propagation(edges, np.ones(4), 5, {0: 1, 4: 0})
        churn_probs = beliefs[:, 1]
        assert np.all(np.diff(churn_probs) < 0)

    def test_disconnected_nodes_keep_prior(self):
        edges = np.array([[0, 1]])
        beliefs = label_propagation(edges, np.ones(1), 3, {0: 1})
        assert beliefs[2, 1] == pytest.approx(0.5)

    def test_rows_remain_distributions(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        beliefs = label_propagation(edges, np.ones(3), 4, {0: 1, 3: 0})
        assert np.allclose(beliefs.sum(axis=1), 1.0)

    def test_multiclass(self):
        edges = np.array([[0, 1], [2, 3]])
        beliefs = label_propagation(
            edges, np.ones(2), 4, {0: 1, 2: 2}, n_classes=3
        )
        assert beliefs[1].argmax() == 1
        assert beliefs[3].argmax() == 2

    def test_validation(self):
        with pytest.raises(ModelError):
            label_propagation(np.array([[0, 1]]), np.ones(1), 2, {5: 1})
        with pytest.raises(ModelError):
            label_propagation(np.array([[0, 1]]), np.ones(1), 2, {0: 7})
        with pytest.raises(ModelError):
            label_propagation(
                np.array([[0, 1]]), np.ones(1), 2, {0: 0}, n_classes=1
            )
