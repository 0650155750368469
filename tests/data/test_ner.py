"""Tests for the synthetic NER corpus generator."""

import numpy as np
import pytest

from repro.data.ner import (
    CONLL2002_ES_SPEC,
    ENTITY_TYPES,
    NERCorpusSpec,
    bioes_tag_names,
    conll2002_dutch,
    conll2002_spanish,
    conll2003_english,
    make_ner_corpus,
)
from repro.data.tagging import TagScheme, validate_tags
from repro.data.text import MAX_SCALE
from repro.exceptions import ConfigurationError


def small_spec(**overrides):
    base = dict(
        name="t", size=120, background_vocab=100, gazetteer_size=20,
        mean_length=10.0, length_spread=3.0,
    )
    base.update(overrides)
    return NERCorpusSpec(**base)


class TestTagInventory:
    def test_o_first(self):
        assert bioes_tag_names()[0] == "O"

    def test_size(self):
        assert len(bioes_tag_names()) == 1 + 4 * len(ENTITY_TYPES)

    def test_all_prefixes_present(self):
        names = bioes_tag_names(("PER",))
        assert set(names) == {"O", "B-PER", "I-PER", "E-PER", "S-PER"}


class TestSpecValidation:
    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            small_spec(size=0)

    def test_empty_background_vocab(self):
        with pytest.raises(ConfigurationError, match="background_vocab"):
            small_spec(background_vocab=0)

    def test_bad_mean_length(self):
        with pytest.raises(ConfigurationError):
            small_spec(mean_length=1.0)

    def test_bad_entity_length(self):
        with pytest.raises(ConfigurationError):
            small_spec(max_entity_length=0)

    def test_bad_trigger_prob(self):
        with pytest.raises(ConfigurationError):
            small_spec(trigger_prob=1.5)

    def test_scaled(self):
        spec = small_spec(size=1000).scaled(0.1)
        assert spec.size == 100

    def test_scaled_floor(self):
        assert small_spec(size=100).scaled(0.01).size == 50

    @pytest.mark.parametrize("scale", [0, MAX_SCALE * 1.5, 1e300, float("nan")])
    def test_scaled_out_of_range_rejected(self, scale):
        with pytest.raises(ConfigurationError, match="scale"):
            small_spec().scaled(scale)


class TestGeneration:
    def test_size(self):
        assert len(make_ner_corpus(small_spec(), 0)) == 120

    def test_deterministic(self):
        a = make_ner_corpus(small_spec(), 3)
        b = make_ner_corpus(small_spec(), 3)
        assert all(np.array_equal(x, y) for x, y in zip(a.sentences, b.sentences))
        assert all(np.array_equal(x, y) for x, y in zip(a.tag_sequences, b.tag_sequences))

    def test_all_tags_valid_bioes(self):
        dataset = make_ner_corpus(small_spec(), 0)
        for i in range(len(dataset)):
            validate_tags(dataset.tags_as_strings(i), TagScheme.BIOES)

    def test_entities_exist(self):
        dataset = make_ner_corpus(small_spec(), 0)
        non_o = sum((tags != 0).sum() for tags in dataset.tag_sequences)
        assert non_o > 0

    def test_entity_tokens_from_gazetteer(self):
        dataset = make_ner_corpus(small_spec(), 0)
        for i in range(30):
            tokens = dataset.vocab.decode(dataset.sentences[i])
            tags = dataset.tags_as_strings(i)
            for token, tag in zip(tokens, tags):
                if tag != "O":
                    entity_type = tag.split("-")[1]
                    assert token.startswith(entity_type)

    def test_min_sentence_length(self):
        dataset = make_ner_corpus(small_spec(mean_length=3.0, length_spread=4.0), 0)
        assert dataset.lengths().min() >= 3

    def test_tag_names_match_inventory(self):
        dataset = make_ner_corpus(small_spec(), 0)
        assert dataset.tag_names == bioes_tag_names()


class TestPresets:
    def test_spanish_sentences_longer(self):
        spanish = conll2002_spanish(scale=0.02, seed_or_rng=0)
        english = conll2003_english(scale=0.02, seed_or_rng=0)
        assert spanish.lengths().mean() > 1.7 * english.lengths().mean()

    def test_scaled_sizes(self):
        dataset = conll2002_spanish(scale=0.01, seed_or_rng=0)
        assert len(dataset) == max(50, int(CONLL2002_ES_SPEC.size * 0.01))

    def test_dutch_preset_name(self):
        assert "Dutch" in conll2002_dutch(scale=0.005).name

    def test_vocabularies_independent(self):
        english = conll2003_english(scale=0.005, seed_or_rng=0)
        dutch = conll2002_dutch(scale=0.005, seed_or_rng=0)
        assert list(english.vocab) != list(dutch.vocab)
