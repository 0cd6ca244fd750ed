"""Unit tests for the text generators and the offer-acceptance model."""

import numpy as np
import pytest

from repro.datagen.offers import (
    N_OFFERS,
    OFFER_CATALOG,
    AcceptanceModel,
    expert_assignment,
    simulate_campaign,
)
from repro.datagen.text import (
    TopicCorpusGenerator,
    make_complaint_generator,
    make_search_generator,
)
from repro.errors import SimulationError


class TestTextGenerators:
    def test_doc_lengths_in_range(self, rng):
        gen = make_search_generator()
        docs = gen.sample_docs(np.zeros(20), 1.0, rng)
        lengths = [len(d.split()) for d in docs]
        lo, hi = gen.doc_length
        assert all(lo <= n <= hi for n in lengths)

    def test_vocab_words_only(self, rng):
        gen = make_complaint_generator()
        docs = gen.sample_docs(np.zeros(10), 1.0, rng)
        vocab = set(gen.vocab)
        for doc in docs:
            assert set(doc.split()) <= vocab

    def test_intent_shifts_vocabulary(self, rng):
        gen = make_search_generator()
        calm = gen.sample_docs(np.zeros(150), 3.0, rng)
        intent = gen.sample_docs(np.ones(150), 3.0, rng)
        prefix = f"srch_t{gen.intent_topic}_"
        calm_hits = sum(t.startswith(prefix) for d in calm for t in d.split())
        intent_hits = sum(
            t.startswith(prefix) for d in intent for t in d.split()
        )
        assert intent_hits > 3 * max(calm_hits, 1)

    def test_bad_intent_topic_rejected(self):
        with pytest.raises(SimulationError):
            TopicCorpusGenerator("x", 3, 5, intent_topic=9, doc_length=(2, 4))

    @pytest.mark.parametrize("doc_length", [(5, 2), (-2, 0)])
    def test_bad_doc_length_rejected(self, doc_length):
        with pytest.raises(SimulationError, match="doc_length"):
            TopicCorpusGenerator("x", 3, 5, intent_topic=0, doc_length=doc_length)


class TestAcceptanceModel:
    def test_probability_validation(self):
        with pytest.raises(SimulationError):
            AcceptanceModel(match_accept=1.5)

    def test_catalog_shape(self):
        assert len(OFFER_CATALOG) == N_OFFERS + 1


class TestSimulateCampaign:
    def test_matched_offers_accepted_most(self, rng):
        n = 8000
        affinity = np.full(n, 2, dtype=np.int64)
        churner = np.ones(n, dtype=bool)
        matched = simulate_campaign(affinity, churner, np.full(n, 2), rng)
        mismatched = simulate_campaign(affinity, churner, np.full(n, 3), rng)
        control = simulate_campaign(affinity, churner, np.zeros(n, dtype=int), rng)
        assert matched.mean() > 0.7
        assert 0.02 < mismatched.mean() < 0.2
        assert control.mean() < 0.05

    def test_refusers_rarely_accept(self, rng):
        n = 5000
        outcome = simulate_campaign(
            np.zeros(n, dtype=int),
            np.ones(n, dtype=bool),
            np.full(n, 1),
            rng,
        )
        assert outcome.mean() < 0.05

    def test_nonchurners_recharge_regardless(self, rng):
        n = 5000
        model = AcceptanceModel(nonchurner_recharge=0.4)
        outcome = simulate_campaign(
            np.full(n, 1, dtype=int),
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=int),
            rng,
            model,
        )
        assert outcome.mean() == pytest.approx(0.4, abs=0.05)

    def test_length_mismatch(self, rng):
        with pytest.raises(SimulationError):
            simulate_campaign(
                np.zeros(2, dtype=int),
                np.zeros(3, dtype=bool),
                np.zeros(2, dtype=int),
                rng,
            )

    def test_offer_range_checked(self, rng):
        with pytest.raises(SimulationError):
            simulate_campaign(
                np.zeros(1, dtype=int),
                np.ones(1, dtype=bool),
                np.array([99]),
                rng,
            )


class TestExpertAssignment:
    def test_offers_in_range(self, rng):
        offers = expert_assignment(rng.random(500), rng.random(500), rng)
        assert offers.min() >= 1
        assert offers.max() <= N_OFFERS

    def test_heavy_data_users_skew_to_flux(self, rng):
        voice = np.zeros(4000)
        data = np.arange(4000, dtype=float)
        offers = expert_assignment(voice, data, rng)
        heavy = offers[3500:]
        light = offers[:500]
        assert (heavy == 3).mean() > (light == 3).mean()
