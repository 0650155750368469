"""Dataset containers shared by models, strategies, and the AL loop.

Two container types cover the paper's two tasks:

* :class:`TextDataset` — variable-length token-id sequences with one class
  label each (text classification).
* :class:`SequenceDataset` — token-id sequences with one tag id per token
  (named entity recognition).

Both are immutable views over numpy data, support ``subset`` (used by the
pool to slice labeled/unlabeled data without copying the corpus), and carry
their vocabulary so models can size their embedding tables.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..exceptions import DataError
from .vocab import Vocabulary


def _as_id_array(sequence: Sequence[int]) -> np.ndarray:
    array = np.asarray(sequence, dtype=np.int64)
    if array.ndim != 1:
        raise DataError(f"token sequences must be 1-D, got shape {array.shape}")
    if array.size and array.min() < 0:
        raise DataError("token ids must be non-negative")
    return array


class TextDataset:
    """Labeled sentences for text classification.

    Parameters
    ----------
    sentences:
        One token-id sequence per sample.
    labels:
        Integer class label per sample, in ``[0, num_classes)``.
    vocab:
        The vocabulary the ids were produced with.
    num_classes:
        Total number of classes (may exceed ``labels.max() + 1`` when a
        subset happens to miss a class).
    name:
        Human-readable dataset name used in reports.
    """

    def __init__(
        self,
        sentences: Sequence[Sequence[int]],
        labels: Sequence[int],
        vocab: Vocabulary,
        num_classes: int,
        name: str = "text",
    ) -> None:
        self.sentences: list[np.ndarray] = [_as_id_array(s) for s in sentences]
        self.labels = np.asarray(labels, dtype=np.int64)
        if len(self.sentences) != len(self.labels):
            raise DataError(
                f"{len(self.sentences)} sentences but {len(self.labels)} labels"
            )
        if num_classes < 2:
            raise DataError(f"num_classes must be >= 2, got {num_classes}")
        if len(self.labels) and not (0 <= self.labels.min() and self.labels.max() < num_classes):
            raise DataError("labels out of range for num_classes")
        self.vocab = vocab
        self.num_classes = int(num_classes)
        self.name = name
        self._occurrences: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None

    def __len__(self) -> int:
        return len(self.sentences)

    def subset(self, indices: Sequence[int]) -> "TextDataset":
        """Return a view-like dataset containing only ``indices``.

        The rows were validated when this dataset was built, so the
        subset takes them as they are instead of re-checking each one.
        """
        index_array = np.asarray(indices, dtype=np.int64)
        subset = TextDataset.__new__(TextDataset)
        subset.sentences = [self.sentences[i] for i in index_array]
        subset.labels = self.labels[index_array]
        subset.vocab = self.vocab
        subset.num_classes = self.num_classes
        subset.name = self.name
        subset._occurrences = None
        return subset

    def lengths(self) -> np.ndarray:
        """Sentence lengths as an int array."""
        return np.array([len(s) for s in self.sentences], dtype=np.int64)

    def max_length(self) -> int:
        """Longest sentence length (0 for an empty dataset)."""
        return int(self.lengths().max()) if len(self) else 0

    def padded(self, max_length: int | None = None) -> np.ndarray:
        """Return an ``(n, max_length)`` matrix padded with the PAD id (0).

        Sentences longer than ``max_length`` are truncated.
        """
        if max_length is None:
            max_length = self.max_length()
        matrix = np.zeros((len(self), max_length), dtype=np.int64)
        for row, sentence in enumerate(self.sentences):
            k = min(len(sentence), max_length)
            matrix[row, :k] = sentence[:k]
        return matrix

    def bag_of_words(self, normalize: bool = True) -> np.ndarray:
        """Return ``(n, |V|)`` token-count features (L1-normalised rows).

        Empty sentences produce an all-zero row.
        """
        matrix = np.zeros((len(self), len(self.vocab)), dtype=np.float64)
        for row, sentence in enumerate(self.sentences):
            np.add.at(matrix[row], sentence, 1.0)
        if normalize:
            totals = matrix.sum(axis=1, keepdims=True)
            np.divide(matrix, totals, out=matrix, where=totals > 0)
        return matrix

    def token_occurrences(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The L1-normalised bag of words in sparse form: ``(rows, tokens, weights)``.

        One entry per distinct (sentence, token) pair, sorted by row and
        then token, with ``weights`` = count / sentence length — entry
        ``k`` equals ``bag_of_words()[rows[k], tokens[k]]`` exactly, and
        every other dense entry is zero.  Empty sentences have no entries.
        Built once per dataset instance and cached (the sentences are
        never modified), without materialising an ``(n, |V|)`` matrix.
        """
        if self._occurrences is None:
            lengths = self.lengths()
            tokens = np.concatenate([*self.sentences, np.zeros(0, dtype=np.int64)])
            width = int(tokens.max(initial=0)) + 1
            keys = np.repeat(np.arange(len(self), dtype=np.int64), lengths) * width + tokens
            keys, counts = np.unique(keys, return_counts=True)
            rows = keys // width
            self._occurrences = (rows, keys % width, counts / lengths[rows])
            for array in self._occurrences:
                array.setflags(write=False)  # shared by every caller
        return self._occurrences

    def class_counts(self) -> np.ndarray:
        """Number of samples per class, length ``num_classes``."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def __repr__(self) -> str:
        return (
            f"TextDataset(name={self.name!r}, n={len(self)}, "
            f"classes={self.num_classes}, vocab={len(self.vocab)})"
        )


class SequenceDataset:
    """Token-tagged sentences for sequence labeling (NER).

    Parameters
    ----------
    sentences:
        One token-id sequence per sample.
    tag_sequences:
        One tag-id sequence per sample, same length as its sentence.
    vocab:
        Token vocabulary.
    tag_names:
        Tag-id -> tag-string table (e.g. ``["O", "B-PER", ...]``).
    name:
        Human-readable dataset name used in reports.
    """

    def __init__(
        self,
        sentences: Sequence[Sequence[int]],
        tag_sequences: Sequence[Sequence[int]],
        vocab: Vocabulary,
        tag_names: Sequence[str],
        name: str = "ner",
    ) -> None:
        self.sentences = [_as_id_array(s) for s in sentences]
        self.tag_sequences = [_as_id_array(t) for t in tag_sequences]
        if len(self.sentences) != len(self.tag_sequences):
            raise DataError(
                f"{len(self.sentences)} sentences but {len(self.tag_sequences)} tag sequences"
            )
        for i, (sentence, tags) in enumerate(zip(self.sentences, self.tag_sequences)):
            if len(sentence) != len(tags):
                raise DataError(
                    f"sentence {i}: {len(sentence)} tokens but {len(tags)} tags"
                )
        self.vocab = vocab
        self.tag_names = list(tag_names)
        if not self.tag_names:
            raise DataError("tag_names must not be empty")
        self.name = name

    @property
    def num_tags(self) -> int:
        """Size of the tag inventory."""
        return len(self.tag_names)

    def __len__(self) -> int:
        return len(self.sentences)

    def subset(self, indices: Sequence[int]) -> "SequenceDataset":
        """Return a dataset containing only ``indices``.

        The rows were validated when this dataset was built, so the
        subset takes them as they are instead of re-checking each one.
        """
        index_array = np.asarray(indices, dtype=np.int64)
        subset = SequenceDataset.__new__(SequenceDataset)
        subset.sentences = [self.sentences[i] for i in index_array]
        subset.tag_sequences = [self.tag_sequences[i] for i in index_array]
        subset.vocab = self.vocab
        subset.tag_names = list(self.tag_names)
        subset.name = self.name
        return subset

    def lengths(self) -> np.ndarray:
        """Sentence lengths as an int array."""
        return np.array([len(s) for s in self.sentences], dtype=np.int64)

    def total_tokens(self) -> int:
        """Total token count across all sentences."""
        return int(self.lengths().sum()) if len(self) else 0

    def tags_as_strings(self, index: int) -> list[str]:
        """Decode the tag sequence of sentence ``index`` to strings."""
        return [self.tag_names[t] for t in self.tag_sequences[index]]

    def __repr__(self) -> str:
        return (
            f"SequenceDataset(name={self.name!r}, n={len(self)}, "
            f"tags={self.num_tags}, vocab={len(self.vocab)})"
        )
