"""Linear-chain CRF sequence labeler.

Fast stand-in for the paper's BiLSTM-CNNs-CRF NER model (Ma & Hovy
2016): the neural encoder is replaced by log-linear emission features —
current word, previous word, next word — while the CRF output layer
(transition matrix, forward-backward training, Viterbi decoding) is the
exact shared implementation in :mod:`repro.models.crf_core`, also used by
the higher-fidelity :class:`~repro.models.bilstm_crf.BiLSTMCRF`.  The
active-learning strategies only consume the probabilistic interface
(best-path probability, token marginals), which this model provides in the
same form the paper's model would.

Stochastic marginals for BALD are produced by *feature dropout*: each of
the three emission components is dropped independently per draw, a
sequence-model analogue of MC dropout.
"""

from __future__ import annotations

import numpy as np

from ..data.datasets import SequenceDataset
from ..exceptions import ConfigurationError, NotFittedError
from ..rng import ensure_rng
from .base import (
    bump_fit_generation,
    params_from_jsonable,
    params_to_jsonable,
    resolve_warm_epochs,
)
from .crf_core import (
    CRFLabeler,
    crf_gradients,
    packed_blocks,
    packed_marginals,
    unpack_rows,
)
from .layers import Adam, minibatches

_COMPONENTS = ("U_curr", "U_prev", "U_next")


class LinearChainCRF(CRFLabeler):
    """CRF over word-identity context features.

    Parameters
    ----------
    epochs:
        Training passes over the labeled sentences.
    learning_rate:
        Adam step size.
    l2:
        L2 penalty on all parameter tables.
    batch_size:
        Sentences per gradient step.
    feature_dropout:
        Component-drop probability used by :meth:`token_marginal_samples`.
    seed:
        Seed for shuffling (parameters start at zero, so init is
        deterministic anyway).
    """

    def __init__(
        self,
        epochs: int = 8,
        learning_rate: float = 0.2,
        l2: float = 1e-4,
        batch_size: int = 16,
        feature_dropout: float = 0.25,
        seed: int = 0,
        warm_epochs: "int | None" = None,
    ) -> None:
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        if not 0 <= feature_dropout < 1:
            raise ConfigurationError(
                f"feature_dropout must be in [0, 1), got {feature_dropout}"
            )
        if warm_epochs is not None and warm_epochs <= 0:
            raise ConfigurationError(f"warm_epochs must be positive, got {warm_epochs}")
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.batch_size = batch_size
        self.feature_dropout = feature_dropout
        self.seed = seed
        self.warm_epochs = warm_epochs
        self._params: dict[str, np.ndarray] | None = None
        self._num_tags: int | None = None

    # -- scores --------------------------------------------------------------

    def _require_fitted(self) -> dict[str, np.ndarray]:
        if self._params is None:
            raise NotFittedError("LinearChainCRF used before fit()")
        return self._params

    def _emission_parts(
        self, sentence: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three emission components (current/previous/next word)."""
        params = self._require_fitted()
        prev_ids = np.concatenate([[0], sentence[:-1]])
        next_ids = np.concatenate([sentence[1:], [0]])
        return (
            params["U_curr"][sentence],
            params["U_prev"][prev_ids],
            params["U_next"][next_ids],
        )

    def emissions(self, dataset: SequenceDataset) -> list[np.ndarray]:
        """Emission matrices ``(L, T)`` of every sentence."""
        return self._emission_matrices(dataset.sentences)

    def _emission_matrices(self, sentences: list[np.ndarray]) -> list[np.ndarray]:
        """Emissions gathered as packed id blocks, one fancy-index pass
        per component table — bit-for-bit the per-sentence sums."""
        params = self._require_fitted()
        output: list[np.ndarray] = [None] * len(sentences)  # type: ignore[list-item]
        for rows, ids, lengths in packed_blocks(sentences):
            zero = np.zeros((len(rows), 1), dtype=np.int64)
            prev_ids = np.concatenate([zero, ids[:, :-1]], axis=1)
            next_ids = np.concatenate([ids[:, 1:], zero], axis=1)
            block = (
                params["U_curr"][ids]
                + params["U_prev"][prev_ids]
                + params["U_next"][next_ids]
                + params["b"]
            )
            unpack_rows(output, rows, block, lengths)
        return output

    # -- training --------------------------------------------------------------

    def fit(
        self, dataset: SequenceDataset, init_from: "LinearChainCRF | None" = None
    ) -> "LinearChainCRF":
        if not len(dataset):
            raise ConfigurationError("cannot fit on an empty dataset")
        rng = ensure_rng(self.seed)
        vocab_size = len(dataset.vocab)
        num_tags = dataset.num_tags
        self._num_tags = num_tags
        if init_from is None:
            epochs = self.epochs
            self._params = {
                "U_curr": np.zeros((vocab_size, num_tags)),
                "U_prev": np.zeros((vocab_size, num_tags)),
                "U_next": np.zeros((vocab_size, num_tags)),
                "b": np.zeros(num_tags),
                "A": np.zeros((num_tags, num_tags)),
                "start": np.zeros(num_tags),
                "end": np.zeros(num_tags),
            }
        else:
            epochs = resolve_warm_epochs(self.epochs, self.warm_epochs)
            if not isinstance(init_from, LinearChainCRF):
                raise ConfigurationError(
                    f"cannot warm-start LinearChainCRF from {type(init_from).__name__}"
                )
            previous = init_from._require_fitted()
            if previous["U_curr"].shape != (vocab_size, num_tags):
                raise ConfigurationError(
                    "warm-start shape mismatch: previous CRF is "
                    f"{previous['U_curr'].shape}, dataset needs "
                    f"{(vocab_size, num_tags)}"
                )
            self._params = {name: value.copy() for name, value in previous.items()}
        optimizer = Adam(learning_rate=self.learning_rate)
        for _ in range(epochs):
            for batch in minibatches(len(dataset), self.batch_size, rng):
                grads = {name: np.zeros_like(v) for name, v in self._params.items()}
                self._accumulate_batch_grads(
                    [dataset.sentences[index] for index in batch],
                    [dataset.tag_sequences[index] for index in batch],
                    grads,
                    scale=1.0 / len(batch),
                )
                for name, value in self._params.items():
                    grads[name] += self.l2 * value
                optimizer.update(self._params, grads)
        bump_fit_generation(self)
        return self

    def _accumulate_batch_grads(
        self,
        sentences: list[np.ndarray],
        tags: list[np.ndarray],
        grads: dict[str, np.ndarray],
        scale: float,
    ) -> None:
        """Add the NLL gradients of a minibatch into ``grads``.

        One packed lattice yields every sentence's gradients; they are
        accumulated in minibatch order (the emission tables through one
        ``np.add.at`` over all tokens), so every float sum keeps the
        order of a sentence-by-sentence loop.
        """
        params = self._require_fitted()
        d_emissions, d_transitions, d_start, d_end = crf_gradients(
            self._emission_matrices(sentences), tags,
            params["A"], params["start"], params["end"],
        )
        tokens = np.concatenate(d_emissions) * scale
        ids = np.concatenate(sentences)
        lengths = np.array([len(sentence) for sentence in sentences])
        ends = np.cumsum(lengths)
        starts = ends - lengths
        prev_ids = np.roll(ids, 1)
        prev_ids[starts] = 0
        next_ids = np.roll(ids, -1)
        next_ids[ends - 1] = 0
        np.add.at(grads["U_curr"], ids, tokens)
        np.add.at(grads["U_prev"], prev_ids, tokens)
        np.add.at(grads["U_next"], next_ids, tokens)
        for row, (first, stop) in enumerate(zip(starts.tolist(), ends.tolist())):
            grads["b"] += tokens[first:stop].sum(axis=0)
            grads["A"] += scale * d_transitions[row]
            grads["start"] += scale * d_start[row]
            grads["end"] += scale * d_end[row]

    def clone(self) -> "LinearChainCRF":
        return LinearChainCRF(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            l2=self.l2,
            batch_size=self.batch_size,
            feature_dropout=self.feature_dropout,
            seed=self.seed,
            warm_epochs=self.warm_epochs,
        )

    # -- parameter state ----------------------------------------------------------

    def get_params(self) -> dict:
        params = self._require_fitted()
        return {
            "arrays": params_to_jsonable(params),
            "meta": {"num_tags": int(self._num_tags)},
        }

    def set_params(self, state: dict) -> "LinearChainCRF":
        self._params = params_from_jsonable(state["arrays"])
        self._num_tags = int(state["meta"]["num_tags"])
        bump_fit_generation(self)
        return self

    # -- inference ----------------------------------------------------------------

    def token_marginal_samples(
        self, dataset: SequenceDataset, n_samples: int, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Stochastic marginals via feature dropout (sequence-BALD).

        The three emission components of a sentence are gathered once and
        only the component mask is resampled per draw; all ``n_samples``
        masked emission matrices then run through one batched
        forward-backward.  Draw order and RNG consumption match the
        per-draw reference path exactly.
        """
        if n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
        params = self._require_fitted()
        results: list[np.ndarray] = []
        num_tags = int(self._num_tags or 0)
        for sentence in dataset.sentences:
            parts = self._emission_parts(sentence)
            emissions = np.empty((n_samples, len(sentence), num_tags))
            for t in range(n_samples):
                keep = rng.random(3) >= self.feature_dropout
                if not keep.any():
                    keep[rng.integers(3)] = True  # never drop every component
                mask = keep / max(keep.mean(), 1e-12)
                emissions[t] = (
                    sum(m * p for m, p in zip(mask, parts)) + params["b"]
                )
            results.append(
                packed_marginals(
                    emissions, np.full(n_samples, len(sentence)),
                    params["A"], params["start"], params["end"],
                )
            )
        return results

    def __repr__(self) -> str:
        state = "fitted" if self._params is not None else "unfitted"
        return f"LinearChainCRF(epochs={self.epochs}, lr={self.learning_rate}, {state})"
