"""Linear-chain CRF lattice kernels shared by the CRF-output models.

Both :class:`~repro.models.crf.LinearChainCRF` (log-linear emissions)
and :class:`~repro.models.bilstm_crf.BiLSTMCRF` (neural emissions) score
a sentence as an emission matrix ``(L, T)`` plus transition parameters
(``A`` of shape ``(T, T)``, and start/end vectors).  Everything past the
emissions runs here, on one *packed lattice*:

* sentences are sorted by length, longest first (a stable sort), and
  right-padded into one ``(B, Lmax, T)`` tensor; ``live[p]`` counts the
  rows longer than ``p``;
* position ``p`` updates only ``rows[:live[p]]``, so no flop goes to
  padding and Python iterates ``Lmax`` times per block rather than once
  per position of every sentence;
* every step applies the same ufuncs to the same operands as the
  per-sentence recursion, and every sum runs over the same tag axis in
  the same order — sequentially over the previous tag in the forward
  sweep (which therefore runs position-major, batch innermost), and
  numpy's pairwise sum over a contiguous next-tag axis in the backward
  sweep — so each row's result is bit-for-bit what the per-sentence
  kernels (kept as oracles in ``tests/oracles.py``) return for that
  sentence alone.

The forward, backward and Viterbi recursions, token marginals and the
negative-log-likelihood gradients all run on it.  Viterbi and the
forward pass are separate entry points, so a caller that only wants
tags never computes a log partition.  Inference packs at most
:data:`BLOCK_ROWS` sentences at a time, because a block's padded work
tensors are all live at once: on the conll-en noise sweep, 128-row
blocks raised peak RSS by about 2.2 MB (4%) over exact-length buckets,
64-row blocks by about 0.3 MB, at the same speed.
"""

from __future__ import annotations

from abc import abstractmethod
from collections.abc import Iterator, Sequence

import numpy as np

from ..data.datasets import SequenceDataset
from .base import SequenceLabeler

#: Most sentences packed into one lattice block.
BLOCK_ROWS = 64


def logsumexp_axis(matrix: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``."""
    peak = matrix.max(axis=axis, keepdims=True)
    return np.log(np.exp(matrix - peak).sum(axis=axis)) + np.squeeze(peak, axis=axis)


def _logsumexp_into(
    scores: np.ndarray, axis: int, out: np.ndarray, peak: np.ndarray
) -> None:
    """:func:`logsumexp_axis` of ``scores`` into ``out``, op for op.

    ``scores`` is overwritten; ``peak`` is a keepdims-shaped work buffer.
    """
    np.maximum.reduce(scores, axis=axis, keepdims=True, out=peak)
    np.subtract(scores, peak, out=scores)
    np.exp(scores, out=scores)
    np.add.reduce(scores, axis=axis, out=out)
    np.log(out, out=out)
    np.add(out, np.squeeze(peak, axis=axis), out=out)


def _live(lengths: np.ndarray) -> list[int]:
    """``live[p]``: rows longer than ``p`` (``lengths`` sorted descending).

    Has one entry past the longest row (always 0).
    """
    return (lengths[:, None] > np.arange(int(lengths[0]) + 1)).sum(axis=0).tolist()


def _forward(
    emissions: np.ndarray,
    lengths: np.ndarray,
    live: list[int],
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Alpha tensor ``(Lmax, T, B)`` of a packed block and ``log Z`` per row.

    The recursion runs position-major with the batch innermost, so the
    reduction over the previous tag sums whole ``(T, rows)`` slabs in
    tag order — the order the per-sentence kernel sums in.  Alpha is
    ``-inf`` past each row's end.
    """
    batch, width, num_tags = emissions.shape
    ahead = np.ascontiguousarray(emissions.transpose(1, 2, 0))
    alpha = np.full((width, num_tags, batch), -np.inf)
    alpha[0] = start[:, None] + ahead[0]
    work = np.empty(num_tags * num_tags * batch)
    peak = np.empty(num_tags * batch)
    total = np.empty(num_tags * batch)
    for position in range(1, width):
        rows = live[position]
        scores = work[: num_tags * num_tags * rows].reshape(num_tags, num_tags, rows)
        row_peak = peak[: num_tags * rows].reshape(1, num_tags, rows)
        row_total = total[: num_tags * rows].reshape(num_tags, rows)
        np.add(alpha[position - 1, :, None, :rows], transitions[:, :, None], out=scores)
        _logsumexp_into(scores, 0, row_total, row_peak)
        np.add(ahead[position, :, :rows], row_total, out=alpha[position, :, :rows])
    last = alpha[lengths - 1, :, np.arange(batch)] + end
    return alpha, logsumexp_axis(last, axis=1)


def _batch_major(alpha: np.ndarray) -> np.ndarray:
    """A position-major ``(Lmax, T, B)`` tensor as C-ordered ``(B, Lmax, T)``."""
    return np.ascontiguousarray(alpha.transpose(2, 0, 1))


def _backward(
    emissions: np.ndarray, live: list[int], transitions: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Beta tensor of a packed block; zero past each row's end."""
    batch, width, num_tags = emissions.shape
    beta = np.zeros_like(emissions)
    scores = np.empty((batch, num_tags, num_tags))
    peak = np.empty((batch, num_tags, 1))
    ahead = np.empty((batch, num_tags))
    for position in range(width - 1, -1, -1):
        rows = live[position + 1]
        beta[rows : live[position], position] = end
        if rows:
            np.add(
                emissions[:rows, position + 1], beta[:rows, position + 1],
                out=ahead[:rows],
            )
            np.add(transitions, ahead[:rows, None, :], out=scores[:rows])
            _logsumexp_into(scores[:rows], 2, beta[:rows, position], peak[:rows])
    return beta


def _viterbi(
    emissions: np.ndarray,
    lengths: np.ndarray,
    live: list[int],
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best paths ``(B, Lmax)`` and their scores; ties go to the lowest tag.

    The sweep keeps only the running maxima (batch innermost, like
    :func:`_forward`); backtracking recomputes the argmax for the one
    tag each row's path takes, from the same sums the sweep maximised.
    """
    batch, width, num_tags = emissions.shape
    ahead = np.ascontiguousarray(emissions.transpose(1, 2, 0))
    delta = np.empty((width, num_tags, batch))
    delta[0] = start[:, None] + ahead[0]
    work = np.empty(num_tags * num_tags * batch)
    for position in range(1, width):
        rows = live[position]
        scores = work[: num_tags * num_tags * rows].reshape(num_tags, num_tags, rows)
        np.add(delta[position - 1, :, None, :rows], transitions[:, :, None], out=scores)
        best = np.maximum.reduce(scores, axis=0)
        np.add(best, ahead[position, :, :rows], out=delta[position, :, :rows])
    index = np.arange(batch)
    final = delta[lengths - 1, :, index] + end
    last = final.argmax(axis=1)
    paths = np.zeros((batch, width), dtype=np.int64)
    paths[index, lengths - 1] = last
    for position in range(width - 1, 0, -1):
        rows = live[position]
        into = transitions[:, paths[:rows, position]]
        candidate = delta[position - 1, :, :rows].T + into.T
        paths[:rows, position - 1] = candidate.argmax(axis=1)
    return paths, final[index, last]


def packed_marginals(
    emissions: np.ndarray,
    lengths: np.ndarray,
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> np.ndarray:
    """Token marginals ``(B, Lmax, T)`` of a packed block (zero past each end).

    ``emissions`` rows must be right-padded and sorted by ``lengths``,
    longest first (equal lengths, e.g. MC draws of one sentence, are the
    all-live case).
    """
    return _lattice(emissions, lengths, _live(lengths), transitions, start, end)[3]


def _lattice(
    emissions: np.ndarray,
    lengths: np.ndarray,
    live: list[int],
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batch-major alpha and beta, ``log Z``, and the token marginals."""
    alpha, log_z = _forward(emissions, lengths, live, transitions, start, end)
    alpha = _batch_major(alpha)
    beta = _backward(emissions, live, transitions, end)
    return alpha, beta, log_z, np.exp(alpha + beta - log_z[:, None, None])


def _packed_gradients(
    emissions: np.ndarray,
    lengths: np.ndarray,
    tags: Sequence[np.ndarray],
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """NLL gradients of a packed block (``tags`` in block row order)."""
    batch, _, num_tags = emissions.shape
    alpha, beta, log_z, d_emissions = _lattice(
        emissions, lengths, _live(lengths), transitions, start, end
    )
    row_of = np.repeat(np.arange(batch), lengths)
    position = np.arange(len(row_of)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    flat_tags = np.concatenate(tags)
    d_emissions[row_of, position, flat_tags] -= 1.0
    index = np.arange(batch)
    d_start = d_emissions[:, 0].copy()
    d_end = d_emissions[index, lengths - 1]
    d_transitions = np.zeros((batch, num_tags, num_tags))
    for row, length in enumerate(lengths.tolist()):
        if length > 1:
            pairwise = (
                alpha[row, : length - 1, :, None]
                + transitions
                + (emissions[row, 1:length] + beta[row, 1:length])[:, None, :]
                - log_z[row]
            )
            d_transitions[row] += np.exp(pairwise).sum(axis=0)
    inner = np.flatnonzero(position < lengths[row_of] - 1)
    np.add.at(
        d_transitions, (row_of[inner], flat_tags[inner], flat_tags[inner + 1]), -1.0
    )
    return d_emissions, d_transitions, d_start, d_end


def packed_blocks(
    sequences: Sequence[np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(rows, block, lengths)`` per block of at most :data:`BLOCK_ROWS`.

    ``rows`` index ``sequences``, longest first (stable); ``block`` holds
    them right-padded with zeros — ``(B, Lmax)`` for token ids,
    ``(B, Lmax, T)`` for emission matrices.
    """
    lengths = np.array([len(sequence) for sequence in sequences], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    for begin in range(0, len(order), BLOCK_ROWS):
        rows = order[begin : begin + BLOCK_ROWS]
        block_lengths = lengths[rows]
        first = np.asarray(sequences[rows[0]])
        block = np.zeros(
            (len(rows), int(block_lengths[0])) + first.shape[1:], dtype=first.dtype
        )
        for slot, row in enumerate(rows.tolist()):
            block[slot, : block_lengths[slot]] = sequences[row]
        yield rows, block, block_lengths


def unpack_rows(
    output: list, rows: np.ndarray, block: np.ndarray, lengths: np.ndarray
) -> None:
    """``output[row]`` = that row's unpadded slice of ``block``."""
    for slot, row in enumerate(rows.tolist()):
        output[row] = block[slot, : lengths[slot]]


def crf_decode(
    emissions: Sequence[np.ndarray],
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Viterbi paths and their unnormalised scores, per sentence."""
    paths: list[np.ndarray] = [None] * len(emissions)  # type: ignore[list-item]
    best = np.empty(len(emissions))
    for rows, block, lengths in packed_blocks(emissions):
        block_paths, best[rows] = _viterbi(
            block, lengths, _live(lengths), transitions, start, end
        )
        unpack_rows(paths, rows, block_paths, lengths)
    return paths, best


def crf_log_partition(
    emissions: Sequence[np.ndarray],
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> np.ndarray:
    """``log Z`` per sentence (the forward recursion alone)."""
    log_z = np.empty(len(emissions))
    for rows, block, lengths in packed_blocks(emissions):
        _, log_z[rows] = _forward(
            block, lengths, _live(lengths), transitions, start, end
        )
    return log_z


def crf_token_marginals(
    emissions: Sequence[np.ndarray],
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> list[np.ndarray]:
    """Token marginal matrices ``(L, T)`` per sentence."""
    output: list[np.ndarray] = [None] * len(emissions)  # type: ignore[list-item]
    for rows, block, lengths in packed_blocks(emissions):
        marginals = packed_marginals(block, lengths, transitions, start, end)
        unpack_rows(output, rows, marginals, lengths)
    return output


def crf_gradients(
    emissions: Sequence[np.ndarray],
    tags: Sequence[np.ndarray],
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Per-sentence gradients of the negative log likelihood.

    Returns ``(d_emissions, d_transitions, d_start, d_end)`` in input
    order: a list of ``(L, T)`` matrices and stacked ``(N, T, T)``,
    ``(N, T)``, ``(N, T)`` arrays.  The likelihood itself is not
    computed.
    """
    count, num_tags = len(emissions), transitions.shape[0]
    d_emissions: list[np.ndarray] = [None] * count  # type: ignore[list-item]
    d_transitions = np.empty((count, num_tags, num_tags))
    d_start = np.empty((count, num_tags))
    d_end = np.empty((count, num_tags))
    for rows, block, lengths in packed_blocks(emissions):
        block_emissions, d_transitions[rows], d_start[rows], d_end[rows] = (
            _packed_gradients(
                block, lengths, [tags[row] for row in rows.tolist()],
                transitions, start, end,
            )
        )
        unpack_rows(d_emissions, rows, block_emissions, lengths)
    return d_emissions, d_transitions, d_start, d_end


class CRFLabeler(SequenceLabeler):
    """A sequence labeler whose output layer is a linear-chain CRF.

    Subclasses compute :meth:`emissions` and keep fitted ``A``,
    ``start`` and ``end`` arrays in ``_require_fitted()``; decoding,
    path probabilities and marginals all run on the packed lattice.
    Each method accepts ``emissions`` a caller already holds, so e.g.
    the per-round :class:`~repro.core.prediction_cache.PredictionCache`
    runs the encoder once for every pass over a dataset.
    """

    @abstractmethod
    def _require_fitted(self) -> dict[str, np.ndarray]:
        """The fitted parameters (raises ``NotFittedError`` before ``fit``)."""

    @abstractmethod
    def emissions(self, dataset: SequenceDataset) -> list[np.ndarray]:
        """Emission matrices ``(L, T)`` of every sentence."""

    def _lattice_inputs(
        self, dataset: SequenceDataset, emissions: "list[np.ndarray] | None"
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        params = self._require_fitted()
        if emissions is None:
            emissions = self.emissions(dataset)
        return emissions, params["A"], params["start"], params["end"]

    def decode(
        self,
        dataset: SequenceDataset,
        *,
        emissions: "list[np.ndarray] | None" = None,
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Viterbi ``(paths, best_scores)``; runs no forward pass."""
        return crf_decode(*self._lattice_inputs(dataset, emissions))

    def predict_log_partition(
        self,
        dataset: SequenceDataset,
        *,
        emissions: "list[np.ndarray] | None" = None,
    ) -> np.ndarray:
        """``log Z(x)`` per sentence; runs no Viterbi pass."""
        return crf_log_partition(*self._lattice_inputs(dataset, emissions))

    def predict_tags(
        self,
        dataset: SequenceDataset,
        *,
        emissions: "list[np.ndarray] | None" = None,
    ) -> list[np.ndarray]:
        """Viterbi tag path of every sentence."""
        return self.decode(dataset, emissions=emissions)[0]

    def best_path_log_proba(
        self,
        dataset: SequenceDataset,
        *,
        emissions: "list[np.ndarray] | None" = None,
    ) -> np.ndarray:
        """``log p(y*|x)`` per sentence — longer sentences score lower,
        which reproduces the length bias MNLP (Eq. 13) corrects."""
        if emissions is None:
            emissions = self.emissions(dataset)
        _, best = self.decode(dataset, emissions=emissions)
        return best - self.predict_log_partition(dataset, emissions=emissions)

    def token_marginals(
        self,
        dataset: SequenceDataset,
        *,
        emissions: "list[np.ndarray] | None" = None,
    ) -> list[np.ndarray]:
        """Per-sentence ``(L, T)`` token marginal matrices."""
        return crf_token_marginals(*self._lattice_inputs(dataset, emissions))

    def token_accuracy(self, dataset: SequenceDataset) -> float:
        """Fraction of tokens whose Viterbi tag matches gold."""
        predicted = self.predict_tags(dataset)
        correct = sum(
            int((p == g).sum()) for p, g in zip(predicted, dataset.tag_sequences)
        )
        total = dataset.total_tokens()
        return correct / total if total else 0.0
