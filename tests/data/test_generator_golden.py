"""Pin the corpus generators' exact output.

The generators issue the draws ``Generator.choice`` makes internally
instead of calling ``choice`` itself.  Two guarantees follow, and both
are checked here:

* the preset corpora hash to digests recorded from the ``choice``-based
  generators, so no byte of any benchmark or experiment input moved;
* over random specs and seeds, the generators equal the ``choice``-based
  oracles in :mod:`tests.oracles` array for array.
"""

import hashlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data.ner import (
    CONLL2002_ES_SPEC,
    CONLL2002_NL_SPEC,
    CONLL2003_EN_SPEC,
    NERCorpusSpec,
    make_ner_corpus,
)
from repro.data.text import (
    MR_SPEC,
    SST2_SPEC,
    SUBJ_SPEC,
    TREC_SPEC,
    TextCorpusSpec,
    make_text_corpus,
)
from tests.oracles import make_ner_corpus_reference, make_text_corpus_reference

#: SHA-256 over the text presets at scales (0.05, 0.2) and seeds 0-4.
TEXT_DIGEST = "fd7bc49bf4a1b53b0593a7dfc6dc93a4b9cff9e278dc290735cff2547abcaba7"
#: SHA-256 over the CoNLL presets at scales (0.02, 0.08) and seeds 0-4.
NER_DIGEST = "3b40b21f3d38da808ec62d16e532d1ff1703df56466bda71f1aa4ae9c15ad592"


def text_digest(datasets) -> str:
    """Hash each sentence then the labels and both masks, per dataset."""
    digest = hashlib.sha256()
    for dataset in datasets:
        for sentence in dataset.sentences:
            digest.update(sentence.tobytes())
            digest.update(b"|")
        digest.update(dataset.labels.tobytes())
        digest.update(dataset.pretrained_mask.tobytes())
        digest.update(dataset.ambiguous_mask.tobytes())
    return digest.hexdigest()


def ner_digest(datasets) -> str:
    """Hash each sentence's tokens and tags, separated, per dataset."""
    digest = hashlib.sha256()
    for dataset in datasets:
        for tokens, tags in zip(dataset.sentences, dataset.tag_sequences):
            digest.update(tokens.tobytes())
            digest.update(b"|")
            digest.update(tags.tobytes())
            digest.update(b"|")
    return digest.hexdigest()


def test_text_presets_match_golden_digest():
    datasets = (
        make_text_corpus(spec.scaled(scale), seed)
        for spec in (MR_SPEC, SST2_SPEC, SUBJ_SPEC, TREC_SPEC)
        for scale in (0.05, 0.2)
        for seed in range(5)
    )
    assert text_digest(datasets) == TEXT_DIGEST


def test_ner_presets_match_golden_digest():
    datasets = (
        make_ner_corpus(spec.scaled(scale), seed)
        for spec in (CONLL2003_EN_SPEC, CONLL2002_ES_SPEC, CONLL2002_NL_SPEC)
        for scale in (0.02, 0.08)
        for seed in range(5)
    )
    assert ner_digest(datasets) == NER_DIGEST


@st.composite
def text_specs(draw):
    num_classes = draw(st.integers(2, 6))
    facets_per_class = draw(st.integers(1, 8))
    min_length = draw(st.integers(1, 20))
    priors = draw(
        st.none() | st.lists(st.floats(0.05, 1.0), min_size=num_classes, max_size=num_classes)
    )
    return TextCorpusSpec(
        name="oracle",
        num_classes=num_classes,
        size=draw(st.integers(1, 60)),
        background_vocab=draw(st.integers(1, 300)),
        facets_per_class=facets_per_class,
        facet_vocab=draw(st.integers(1, 12)),
        facets_per_sample=draw(st.integers(1, facets_per_class)),
        facet_zipf=draw(st.floats(0.0, 3.0)),
        min_length=min_length,
        max_length=min_length + draw(st.integers(0, 40)),
        purity_alpha=draw(st.floats(0.2, 5.0)),
        purity_beta=draw(st.floats(0.2, 5.0)),
        ambiguous_fraction=draw(st.floats(0.0, 0.95)),
        pretrained_coverage=draw(st.floats(0.0, 1.0)),
        zipf_exponent=draw(st.floats(0.0, 2.5)),
        class_priors=tuple(priors) if priors else (),
    )


@st.composite
def ner_specs(draw):
    return NERCorpusSpec(
        name=draw(st.sampled_from(["oracle", "CoNLL"])),
        size=draw(st.integers(1, 40)),
        background_vocab=draw(st.integers(1, 300)),
        gazetteer_size=draw(st.integers(1, 40)),
        trigger_words=draw(st.integers(1, 15)),
        mean_length=draw(st.floats(3.0, 40.0)),
        length_spread=draw(st.floats(0.0, 12.0)),
        entity_rate=draw(st.floats(0.0, 4.0)),
        max_entity_length=draw(st.integers(1, 5)),
        trigger_prob=draw(st.floats(0.0, 1.0)),
        zipf_exponent=draw(st.floats(0.0, 2.5)),
    )


@settings(max_examples=60, deadline=None)
@given(spec=text_specs(), seed=st.integers(0, 2**32 - 1))
def test_text_generator_equals_choice_oracle(spec, seed):
    fast = make_text_corpus(spec, seed)
    slow = make_text_corpus_reference(spec, seed)
    assert len(fast.sentences) == len(slow.sentences)
    for mine, theirs in zip(fast.sentences, slow.sentences):
        assert mine.dtype == theirs.dtype
        np.testing.assert_array_equal(mine, theirs)
    assert fast.labels.dtype == slow.labels.dtype
    np.testing.assert_array_equal(fast.labels, slow.labels)
    np.testing.assert_array_equal(fast.pretrained_mask, slow.pretrained_mask)
    np.testing.assert_array_equal(fast.ambiguous_mask, slow.ambiguous_mask)
    assert list(fast.vocab) == list(slow.vocab)


@settings(max_examples=60, deadline=None)
@given(spec=ner_specs(), seed=st.integers(0, 2**32 - 1))
def test_ner_generator_equals_choice_oracle(spec, seed):
    fast = make_ner_corpus(spec, seed)
    slow = make_ner_corpus_reference(spec, seed)
    assert len(fast.sentences) == len(slow.sentences)
    for mine, theirs in zip(fast.sentences, slow.sentences):
        np.testing.assert_array_equal(mine, theirs)
    for mine, theirs in zip(fast.tag_sequences, slow.tag_sequences):
        np.testing.assert_array_equal(mine, theirs)
    assert list(fast.vocab) == list(slow.vocab)
    assert fast.tag_names == slow.tag_names
