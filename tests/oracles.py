"""Reference implementations the optimised code paths are checked against.

Each oracle is the straightforward version of a routine that ``src/``
now implements faster.  Tests assert that the fast version reproduces
its oracle exactly; the oracles themselves are never used outside
tests.

* :func:`make_text_corpus_reference` and :func:`make_ner_corpus_reference`
  are the corpus generators as first written, one ``Generator.choice``
  call per draw.  The library generators replace each ``choice`` with
  the draw numpy makes inside it, so both must consume the random
  stream identically and return bit-identical corpora.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import SequenceDataset, TextDataset
from repro.data.ner import ENTITY_TYPES, NERCorpusSpec, bioes_tag_names
from repro.data.tagging import bio_to_bioes
from repro.data.text import TextCorpusSpec, _zipf_probabilities
from repro.data.vocab import Vocabulary
from repro.rng import ensure_rng


def make_text_corpus_reference(
    spec: TextCorpusSpec,
    seed_or_rng: "int | np.random.Generator | None" = None,
) -> TextDataset:
    """Oracle for :func:`repro.data.text.make_text_corpus`."""
    rng = ensure_rng(seed_or_rng)
    vocab = Vocabulary()
    background_ids = np.array(
        [vocab.add(f"w{i}") for i in range(spec.background_vocab)], dtype=np.int64
    )
    facet_ids = {
        (cls, facet): np.array(
            [vocab.add(f"c{cls}f{facet}_{i}") for i in range(spec.facet_vocab)],
            dtype=np.int64,
        )
        for cls in range(spec.num_classes)
        for facet in range(spec.facets_per_class)
    }
    vocab.freeze()

    background_probs = _zipf_probabilities(spec.background_vocab, spec.zipf_exponent)
    facet_probs = _zipf_probabilities(spec.facets_per_class, spec.facet_zipf)
    priors = (
        np.asarray(spec.class_priors, dtype=np.float64)
        if spec.class_priors
        else np.full(spec.num_classes, 1.0 / spec.num_classes)
    )
    priors = priors / priors.sum()

    labels = rng.choice(spec.num_classes, size=spec.size, p=priors)
    lengths = rng.integers(spec.min_length, spec.max_length + 1, size=spec.size)
    purities = rng.beta(spec.purity_alpha, spec.purity_beta, size=spec.size)
    ambiguous = rng.random(spec.size) < spec.ambiguous_fraction
    other_classes = (
        labels + rng.integers(1, spec.num_classes, size=spec.size)
    ) % spec.num_classes
    mix_shares = rng.uniform(0.3, 0.5, size=spec.size)

    sentences: list[np.ndarray] = []
    for i in range(spec.size):
        length = int(lengths[i])
        n_indicative = max(1, int(round(length * purities[i])))
        n_background = max(0, length - n_indicative)
        facets = rng.choice(
            spec.facets_per_class, size=spec.facets_per_sample, p=facet_probs
        )
        own_lexicon = np.concatenate([facet_ids[(labels[i], f)] for f in facets])
        tokens = [rng.choice(background_ids, size=n_background, p=background_probs)]
        if ambiguous[i]:
            n_other = int(round(n_indicative * mix_shares[i]))
            n_own = n_indicative - n_other
            other_facet = rng.choice(spec.facets_per_class, p=facet_probs)
            tokens.append(rng.choice(own_lexicon, size=n_own))
            tokens.append(
                rng.choice(facet_ids[(other_classes[i], other_facet)], size=n_other)
            )
        else:
            tokens.append(rng.choice(own_lexicon, size=n_indicative))
        sentence = np.concatenate(tokens)
        rng.shuffle(sentence)
        sentences.append(sentence)

    dataset = TextDataset(sentences, labels, vocab, spec.num_classes, name=spec.name)
    pretrained_mask = np.zeros(len(vocab), dtype=bool)
    covered = rng.random(len(vocab)) < spec.pretrained_coverage
    pretrained_mask[covered] = True
    pretrained_mask[:2] = False
    dataset.pretrained_mask = pretrained_mask
    dataset.ambiguous_mask = ambiguous
    return dataset


def make_ner_corpus_reference(
    spec: NERCorpusSpec,
    seed_or_rng: "int | np.random.Generator | None" = None,
) -> SequenceDataset:
    """Oracle for :func:`repro.data.ner.make_ner_corpus`."""
    rng = ensure_rng(seed_or_rng)
    vocab = Vocabulary()
    background_ids = np.array(
        [vocab.add(f"{spec.name.lower()}_w{i}") for i in range(spec.background_vocab)],
        dtype=np.int64,
    )
    gazetteers = {
        entity_type: np.array(
            [vocab.add(f"{entity_type}_{i}") for i in range(spec.gazetteer_size)],
            dtype=np.int64,
        )
        for entity_type in ENTITY_TYPES
    }
    triggers = {
        entity_type: np.array(
            [vocab.add(f"trig_{entity_type}_{i}") for i in range(spec.trigger_words)],
            dtype=np.int64,
        )
        for entity_type in ENTITY_TYPES
    }
    vocab.freeze()

    ranks = np.arange(1, spec.background_vocab + 1, dtype=np.float64)
    background_probs = ranks**-spec.zipf_exponent
    background_probs /= background_probs.sum()
    type_probs = np.array([0.32, 0.27, 0.29, 0.12])

    tag_names = bioes_tag_names()
    tag_ids = {tag: i for i, tag in enumerate(tag_names)}

    sentences: list[np.ndarray] = []
    tag_sequences: list[np.ndarray] = []
    for _ in range(spec.size):
        length = max(3, int(round(rng.normal(spec.mean_length, spec.length_spread))))
        n_entities = rng.poisson(spec.entity_rate * length / 10.0)
        tokens: list[int] = []
        bio_tags: list[str] = []
        remaining_entities = n_entities
        while len(tokens) < length:
            budget = length - len(tokens)
            if remaining_entities > 0 and budget >= 2 and rng.random() < 0.5:
                entity_type = ENTITY_TYPES[rng.choice(len(ENTITY_TYPES), p=type_probs)]
                if rng.random() < spec.trigger_prob:
                    tokens.append(int(rng.choice(triggers[entity_type])))
                    bio_tags.append("O")
                    budget -= 1
                span = int(rng.integers(1, min(spec.max_entity_length, max(1, budget)) + 1))
                mention = rng.choice(gazetteers[entity_type], size=span)
                tokens.extend(int(t) for t in mention)
                bio_tags.append(f"B-{entity_type}")
                bio_tags.extend(f"I-{entity_type}" for _ in range(span - 1))
                remaining_entities -= 1
            else:
                tokens.append(int(rng.choice(background_ids, p=background_probs)))
                bio_tags.append("O")
        tokens = tokens[:length]
        bio_tags = bio_tags[:length]
        bioes = bio_to_bioes(bio_tags)
        sentences.append(np.asarray(tokens, dtype=np.int64))
        tag_sequences.append(np.asarray([tag_ids[t] for t in bioes], dtype=np.int64))

    return SequenceDataset(sentences, tag_sequences, vocab, tag_names, name=spec.name)
