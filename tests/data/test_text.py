"""Tests for the synthetic text-classification corpus generator."""

import numpy as np
import pytest

from repro.data.text import (
    MAX_SCALE,
    MR_SPEC,
    SST2_SPEC,
    SUBJ_SPEC,
    TREC_SPEC,
    TextCorpusSpec,
    make_text_corpus,
    mr,
    sst2,
    subj,
    trec,
)
from repro.exceptions import ConfigurationError


def small_spec(**overrides):
    base = dict(
        name="t", num_classes=2, size=200, background_vocab=120,
        facets_per_class=6, facet_vocab=6, min_length=5, max_length=15,
    )
    base.update(overrides)
    return TextCorpusSpec(**base)


class TestSpecValidation:
    def test_bad_num_classes(self):
        with pytest.raises(ConfigurationError):
            small_spec(num_classes=1)

    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            small_spec(size=0)

    def test_bad_lengths(self):
        with pytest.raises(ConfigurationError):
            small_spec(min_length=10, max_length=5)

    def test_empty_background_vocab(self):
        with pytest.raises(ConfigurationError, match="background_vocab"):
            small_spec(background_vocab=0)

    def test_bad_ambiguity(self):
        with pytest.raises(ConfigurationError):
            small_spec(ambiguous_fraction=1.0)

    def test_bad_facets_per_sample(self):
        with pytest.raises(ConfigurationError):
            small_spec(facets_per_sample=99)

    def test_priors_length_checked(self):
        with pytest.raises(ConfigurationError):
            small_spec(class_priors=(0.5, 0.3, 0.2))

    def test_class_vocab_property(self):
        assert small_spec().class_vocab == 36

    def test_scaled_identity(self):
        spec = small_spec()
        assert spec.scaled(1.0) is spec

    def test_scaled_reduces_size(self):
        assert small_spec(size=1000).scaled(0.5).size == 500

    def test_scaled_bad_scale(self):
        with pytest.raises(ConfigurationError):
            small_spec().scaled(0)

    @pytest.mark.parametrize(
        "scale", [MAX_SCALE * 1.5, 1e300, float("inf"), float("nan")]
    )
    def test_scaled_over_cap_rejected(self, scale):
        with pytest.raises(ConfigurationError, match="scale"):
            small_spec().scaled(scale)

    def test_scaled_at_cap_accepted(self):
        assert small_spec(size=100).scaled(MAX_SCALE).size == 100 * MAX_SCALE


class TestGeneration:
    def test_size(self):
        assert len(make_text_corpus(small_spec(), 0)) == 200

    def test_deterministic(self):
        a = make_text_corpus(small_spec(), 7)
        b = make_text_corpus(small_spec(), 7)
        assert np.array_equal(a.labels, b.labels)
        assert all(np.array_equal(x, y) for x, y in zip(a.sentences, b.sentences))

    def test_seed_changes_output(self):
        a = make_text_corpus(small_spec(), 1)
        b = make_text_corpus(small_spec(), 2)
        assert not np.array_equal(a.labels, b.labels)

    def test_lengths_within_bounds(self):
        dataset = make_text_corpus(small_spec(), 0)
        lengths = dataset.lengths()
        assert lengths.min() >= 5 and lengths.max() <= 15

    def test_vocab_is_frozen(self):
        assert make_text_corpus(small_spec(), 0).vocab.frozen

    def test_labels_cover_classes(self):
        dataset = make_text_corpus(small_spec(), 0)
        assert set(np.unique(dataset.labels)) == {0, 1}

    def test_class_priors_respected(self):
        spec = small_spec(size=2000, class_priors=(0.9, 0.1))
        dataset = make_text_corpus(spec, 0)
        assert (dataset.labels == 0).mean() > 0.8

    def test_pretrained_mask_excludes_specials(self):
        dataset = make_text_corpus(small_spec(), 0)
        assert not dataset.pretrained_mask[0] and not dataset.pretrained_mask[1]

    def test_pretrained_coverage_approximate(self):
        dataset = make_text_corpus(small_spec(pretrained_coverage=0.9), 0)
        assert 0.8 < dataset.pretrained_mask.mean() < 0.98

    def test_ambiguous_mask_fraction(self):
        dataset = make_text_corpus(small_spec(size=2000, ambiguous_fraction=0.3), 0)
        assert 0.25 < dataset.ambiguous_mask.mean() < 0.35

    def test_class_words_match_label(self):
        """Non-ambiguous samples contain indicative words only of their class."""
        dataset = make_text_corpus(small_spec(ambiguous_fraction=0.0), 0)
        for i in range(50):
            tokens = dataset.vocab.decode(dataset.sentences[i])
            class_tokens = [t for t in tokens if t.startswith("c")]
            assert class_tokens, "every sample should carry indicative words"
            assert all(t.startswith(f"c{dataset.labels[i]}f") for t in class_tokens)


class TestPresets:
    @pytest.mark.parametrize(
        "factory,spec",
        [(mr, MR_SPEC), (sst2, SST2_SPEC), (subj, SUBJ_SPEC), (trec, TREC_SPEC)],
    )
    def test_scaled_presets_shrink(self, factory, spec):
        dataset = factory(scale=0.02, seed_or_rng=0)
        assert len(dataset) == max(spec.num_classes * 10, int(spec.size * 0.02))
        assert dataset.name == spec.name

    def test_trec_is_six_class(self):
        assert trec(scale=0.02).num_classes == 6

    def test_binary_presets(self):
        for factory in (mr, sst2, subj):
            assert factory(scale=0.02).num_classes == 2

    def test_trec_imbalanced(self):
        dataset = trec(scale=0.3, seed_or_rng=0)
        counts = dataset.class_counts()
        assert counts[0] > counts[5]
