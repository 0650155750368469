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
* The ``crf_*`` kernels are the per-sentence linear-chain CRF
  recursions, and the ``*_reference`` functions run a CRF-output model
  one sentence at a time on them (``crf_fit_reference`` and
  ``bilstm_crf_fit_reference`` train that way).  The packed lattice in
  :mod:`repro.models.crf_core` must match them bit for bit; only the
  BiLSTM encoder, batched by exact length, carries a gemm-vs-gemv
  tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import SequenceDataset, TextDataset
from repro.data.ner import ENTITY_TYPES, NERCorpusSpec, bioes_tag_names
from repro.data.tagging import bio_to_bioes
from repro.data.text import TextCorpusSpec, _zipf_probabilities
from repro.data.vocab import Vocabulary
from repro.models.bilstm_crf import BiLSTMCRF
from repro.models.crf import LinearChainCRF
from repro.models.layers import Adam, dropout_mask, minibatches
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


# -- linear-chain CRF, one sentence at a time ---------------------------------


def logsumexp_axis(matrix: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``."""
    peak = matrix.max(axis=axis, keepdims=True)
    return np.log(np.exp(matrix - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


def crf_forward(emissions, transitions, start, end) -> "tuple[np.ndarray, float]":
    """Forward recursion: alpha table ``(L, T)`` and log partition."""
    length = emissions.shape[0]
    alpha = np.empty_like(emissions)
    alpha[0] = start + emissions[0]
    for position in range(1, length):
        alpha[position] = emissions[position] + logsumexp_axis(
            alpha[position - 1][:, None] + transitions, axis=0
        )
    log_z = float(logsumexp_axis((alpha[length - 1] + end)[None, :], axis=1)[0])
    return alpha, log_z


def crf_backward(emissions, transitions, end) -> np.ndarray:
    """Backward recursion: beta table ``(L, T)``."""
    length = emissions.shape[0]
    beta = np.empty_like(emissions)
    beta[length - 1] = end
    for position in range(length - 2, -1, -1):
        beta[position] = logsumexp_axis(
            transitions + (emissions[position + 1] + beta[position + 1])[None, :],
            axis=1,
        )
    return beta


def crf_path_score(emissions, tags, transitions, start, end) -> float:
    """Unnormalised log score of one tag path."""
    score = float(start[tags[0]] + emissions[0, tags[0]])
    for position in range(1, len(tags)):
        score += float(transitions[tags[position - 1], tags[position]])
        score += float(emissions[position, tags[position]])
    return score + float(end[tags[-1]])


def crf_viterbi(emissions, transitions, start, end) -> "tuple[np.ndarray, float]":
    """Best tag path and its unnormalised score."""
    length, num_tags = emissions.shape
    delta = start + emissions[0]
    backpointers = np.empty((length, num_tags), dtype=np.int64)
    for position in range(1, length):
        candidate = delta[:, None] + transitions
        backpointers[position] = candidate.argmax(axis=0)
        delta = candidate.max(axis=0) + emissions[position]
    delta = delta + end
    best_last = int(delta.argmax())
    path = np.empty(length, dtype=np.int64)
    path[-1] = best_last
    for position in range(length - 1, 0, -1):
        path[position - 1] = backpointers[position, path[position]]
    return path, float(delta[best_last])


def crf_marginals(emissions, transitions, start, end) -> np.ndarray:
    """Token marginal distributions ``(L, T)``."""
    alpha, log_z = crf_forward(emissions, transitions, start, end)
    beta = crf_backward(emissions, transitions, end)
    return np.exp(alpha + beta - log_z)


def crf_sentence_gradients(emissions, tags, transitions, start, end):
    """``(d_emissions, d_transitions, d_start, d_end, nll)`` of one sentence."""
    length = emissions.shape[0]
    alpha, log_z = crf_forward(emissions, transitions, start, end)
    beta = crf_backward(emissions, transitions, end)
    marginals = np.exp(alpha + beta - log_z)
    d_emissions = marginals.copy()
    d_emissions[np.arange(length), tags] -= 1.0
    d_transitions = np.zeros_like(transitions)
    if length > 1:
        pairwise = (
            alpha[:-1, :, None]
            + transitions[None, :, :]
            + (emissions[1:] + beta[1:])[:, None, :]
            - log_z
        )
        d_transitions += np.exp(pairwise).sum(axis=0)
        np.add.at(d_transitions, (tags[:-1], tags[1:]), -1.0)
    d_start = marginals[0].copy()
    d_start[tags[0]] -= 1.0
    d_end = marginals[-1].copy()
    d_end[tags[-1]] -= 1.0
    nll = log_z - crf_path_score(emissions, tags, transitions, start, end)
    return d_emissions, d_transitions, d_start, d_end, nll


def crf_sentence_emissions(
    model: LinearChainCRF, sentence: np.ndarray, component_mask=None
) -> np.ndarray:
    """``LinearChainCRF`` emissions of one sentence; ``component_mask``
    scales the current/previous/next word components (feature dropout)."""
    params = model._require_fitted()
    parts = model._emission_parts(sentence)
    if component_mask is None:
        emissions = parts[0] + parts[1] + parts[2]
    else:
        emissions = sum(m * p for m, p in zip(component_mask, parts))
    return emissions + params["b"]


def _sentence_emissions(model, sentence: np.ndarray) -> np.ndarray:
    if isinstance(model, BiLSTMCRF):
        return model._encode(sentence, None)[0]
    return crf_sentence_emissions(model, sentence)


def _output_layer(params: dict) -> tuple:
    return params["A"], params["start"], params["end"]


def predict_tags_reference(model, dataset: SequenceDataset) -> list[np.ndarray]:
    """Viterbi paths, one sentence at a time."""
    layer = _output_layer(model._require_fitted())
    return [
        crf_viterbi(_sentence_emissions(model, sentence), *layer)[0]
        for sentence in dataset.sentences
    ]


def best_path_log_proba_reference(model, dataset: SequenceDataset) -> np.ndarray:
    """``log p(y*|x)``, one sentence at a time."""
    layer = _output_layer(model._require_fitted())
    log_probas = np.empty(len(dataset))
    for index, sentence in enumerate(dataset.sentences):
        emissions = _sentence_emissions(model, sentence)
        _, best_score = crf_viterbi(emissions, *layer)
        _, log_z = crf_forward(emissions, *layer)
        log_probas[index] = best_score - log_z
    return log_probas


def token_marginals_reference(model, dataset: SequenceDataset) -> list[np.ndarray]:
    """Token marginals, one sentence at a time."""
    layer = _output_layer(model._require_fitted())
    return [
        crf_marginals(_sentence_emissions(model, sentence), *layer)
        for sentence in dataset.sentences
    ]


def token_marginal_samples_reference(
    model, dataset: SequenceDataset, n_samples: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """MC marginals, one draw of one sentence at a time (same RNG stream)."""
    layer = _output_layer(model._require_fitted())
    num_tags = int(model._num_tags)
    results = []
    for sentence in dataset.sentences:
        draws = np.empty((n_samples, len(sentence), num_tags))
        for t in range(n_samples):
            if isinstance(model, BiLSTMCRF):
                mask = dropout_mask(
                    rng, (len(sentence), 2 * model.hidden_dim), model.dropout
                )
                emissions, _ = model._encode(sentence, mask)
            else:
                keep = rng.random(3) >= model.feature_dropout
                if not keep.any():
                    keep[rng.integers(3)] = True  # never drop every component
                mask = keep / max(keep.mean(), 1e-12)
                emissions = crf_sentence_emissions(model, sentence, mask)
            draws[t] = crf_marginals(emissions, *layer)
        results.append(draws)
    return results


def crf_accumulate_sentence_grads(
    model: LinearChainCRF, sentence, tags, grads: dict, scale: float
) -> None:
    """Add one sentence's NLL gradient into ``grads``."""
    params = model._require_fitted()
    d_emissions, d_transitions, d_start, d_end, _ = crf_sentence_gradients(
        crf_sentence_emissions(model, sentence), tags, *_output_layer(params)
    )
    d_emissions = d_emissions * scale
    prev_ids = np.concatenate([[0], sentence[:-1]])
    next_ids = np.concatenate([sentence[1:], [0]])
    np.add.at(grads["U_curr"], sentence, d_emissions)
    np.add.at(grads["U_prev"], prev_ids, d_emissions)
    np.add.at(grads["U_next"], next_ids, d_emissions)
    grads["b"] += d_emissions.sum(axis=0)
    grads["A"] += scale * d_transitions
    grads["start"] += scale * d_start
    grads["end"] += scale * d_end


def crf_fit_reference(model: LinearChainCRF, dataset: SequenceDataset) -> dict:
    """Cold-start ``LinearChainCRF.fit`` with per-sentence gradients.

    Fits ``model`` in place and returns its parameters.
    """
    rng = ensure_rng(model.seed)
    shape = (len(dataset.vocab), dataset.num_tags)
    model._num_tags = dataset.num_tags
    model._params = {
        "U_curr": np.zeros(shape),
        "U_prev": np.zeros(shape),
        "U_next": np.zeros(shape),
        "b": np.zeros(dataset.num_tags),
        "A": np.zeros((dataset.num_tags, dataset.num_tags)),
        "start": np.zeros(dataset.num_tags),
        "end": np.zeros(dataset.num_tags),
    }
    optimizer = Adam(learning_rate=model.learning_rate)
    for _ in range(model.epochs):
        for batch in minibatches(len(dataset), model.batch_size, rng):
            grads = {name: np.zeros_like(v) for name, v in model._params.items()}
            for index in batch:
                crf_accumulate_sentence_grads(
                    model, dataset.sentences[index], dataset.tag_sequences[index],
                    grads, scale=1.0 / len(batch),
                )
            for name, value in model._params.items():
                grads[name] += model.l2 * value
            optimizer.update(model._params, grads)
    return model._params


def bilstm_crf_fit_reference(model: BiLSTMCRF, dataset: SequenceDataset) -> dict:
    """Cold-start ``BiLSTMCRF.fit`` with per-sentence CRF gradients.

    Fits ``model`` in place and returns its parameters.
    """
    rng = ensure_rng(model.seed)
    model._init_params(dataset, rng)
    params = model._params
    optimizer = Adam(learning_rate=model.learning_rate)
    for _ in range(model.epochs):
        for batch in minibatches(len(dataset), model.batch_size, rng):
            grads = {name: np.zeros_like(v) for name, v in params.items()}
            for index in batch:
                sentence = dataset.sentences[index]
                mask = dropout_mask(
                    rng, (len(sentence), 2 * model.hidden_dim), model.dropout
                )
                emissions, cache = model._encode(sentence, mask)
                d_em, d_a, d_start, d_end, _ = crf_sentence_gradients(
                    emissions, dataset.tag_sequences[index], *_output_layer(params)
                )
                scale = 1.0 / len(batch)
                model._backprop(cache, d_em * scale, grads)
                grads["A"] += scale * d_a
                grads["start"] += scale * d_start
                grads["end"] += scale * d_end
            for name in ("Wxf", "Whf", "Wxb", "Whb", "Wo"):
                grads[name] += model.l2 * params[name]
            optimizer.update(params, grads)
    return params
