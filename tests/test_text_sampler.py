"""The bulk corpus sampler against the per-word oracle.

``TopicCorpusGenerator.sample_docs`` must return the oracle's documents
string for string and consume the generator exactly as the oracle does,
so every table drawn after the text stays the same too.

A uniform lands exactly on a step of a random topic cdf with probability
about 2**-53, so seeded draws alone never show which side of a tie the
topic search takes.  :class:`TiedGenerator` puts such a tie into every
document.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datagen.text import (
    TopicCorpusGenerator,
    make_complaint_generator,
    make_search_generator,
)
from reference_text import reference_sample_docs


class TiedGenerator(np.random.Generator):
    """Returns each author's mixture with its first cdf step exactly on the
    author's first topic uniform (peeked from a copy of the stream), where
    ``Generator.choice`` picks the topic *after* the step."""

    def __init__(self, seed: int, doc_length: tuple[int, int]) -> None:
        super().__init__(np.random.PCG64(seed))
        self._doc_length = doc_length

    def dirichlet(self, alpha):
        peek = np.random.Generator(np.random.PCG64())
        peek.bit_generator.state = self.bit_generator.state
        lo, hi = self._doc_length
        peek.integers(lo, hi + 1)
        u = peek.random()
        theta = np.zeros(len(alpha))
        theta[0], theta[1] = u, 1.0 - u  # both exact: u is a multiple of 2**-53
        return theta


GENERATORS = {
    "search": make_search_generator(),
    "complaint": make_complaint_generator(),
    "fixed_length": TopicCorpusGenerator(
        "fix", n_topics=3, words_per_topic=4, intent_topic=2, doc_length=(6, 6)
    ),
    "maybe_empty": TopicCorpusGenerator(
        "few", n_topics=2, words_per_topic=3, intent_topic=1, doc_length=(0, 2)
    ),
}


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(GENERATORS)),
    intent=st.one_of(
        st.just([]),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=1),
        st.lists(st.floats(0.0, 1.0), max_size=120),
    ),
    strength=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
    tied=st.booleans(),
)
def test_sample_docs_matches_reference(name, intent, strength, seed, tied):
    gen = GENERATORS[name]
    if tied:
        got_rng = TiedGenerator(seed, gen.doc_length)
        ref_rng = TiedGenerator(seed, gen.doc_length)
    else:
        got_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
    got = gen.sample_docs(np.asarray(intent, dtype=np.float64), strength, got_rng)
    ref = reference_sample_docs(gen, intent, strength, ref_rng)
    assert got == ref
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
