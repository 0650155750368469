"""Tests for TextDataset / SequenceDataset containers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.datasets import SequenceDataset, TextDataset
from repro.data.vocab import Vocabulary
from repro.exceptions import DataError


@pytest.fixture()
def small_text():
    vocab = Vocabulary([f"t{i}" for i in range(8)])
    sentences = [[2, 3, 4], [5, 6], [7, 8, 9, 2]]
    return TextDataset(sentences, [0, 1, 0], vocab, num_classes=2, name="small")


class TestTextDataset:
    def test_len(self, small_text):
        assert len(small_text) == 3

    def test_mismatched_labels_raise(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            TextDataset([[2]], [0, 1], vocab, 2)

    def test_label_out_of_range(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            TextDataset([[2]], [5], vocab, 2)

    def test_negative_token_id(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            TextDataset([[-1]], [0], vocab, 2)

    def test_num_classes_below_two(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            TextDataset([[2]], [0], vocab, 1)

    def test_2d_sentence_rejected(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            TextDataset([[[2, 3]]], [0], vocab, 2)

    def test_subset_preserves_alignment(self, small_text):
        sub = small_text.subset([2, 0])
        assert sub.labels.tolist() == [0, 0]
        assert sub.sentences[0].tolist() == [7, 8, 9, 2]

    def test_subset_keeps_num_classes(self, small_text):
        assert small_text.subset([0]).num_classes == 2

    def test_lengths(self, small_text):
        assert small_text.lengths().tolist() == [3, 2, 4]

    def test_max_length(self, small_text):
        assert small_text.max_length() == 4

    def test_padded_shape_and_pad_value(self, small_text):
        padded = small_text.padded()
        assert padded.shape == (3, 4)
        assert padded[1, 2] == 0 and padded[1, 3] == 0

    def test_padded_truncates(self, small_text):
        padded = small_text.padded(max_length=2)
        assert padded.shape == (3, 2)
        assert padded[0].tolist() == [2, 3]

    def test_bag_of_words_rows_sum_to_one(self, small_text):
        bow = small_text.bag_of_words()
        assert np.allclose(bow.sum(axis=1), 1.0)

    def test_bag_of_words_counts(self, small_text):
        bow = small_text.bag_of_words(normalize=False)
        assert bow[2, 2] == 1.0  # token id 2 appears once in sentence 2

    def test_token_occurrences_rebuild_bag_of_words_exactly(self):
        vocab = Vocabulary([f"t{i}" for i in range(8)])
        dataset = TextDataset([[2, 3, 2, 2], [], [9, 4], [5]], [0, 1, 0, 1], vocab, 2)
        rows, tokens, weights = dataset.token_occurrences()
        assert rows.tolist() == [0, 0, 2, 2, 3]
        assert tokens.tolist() == [2, 3, 4, 9, 5]
        dense = np.zeros((len(dataset), len(vocab)))
        dense[rows, tokens] = weights
        assert np.array_equal(dense, dataset.bag_of_words())

    def test_token_occurrences_of_empty_dataset(self, small_text):
        rows, tokens, weights = small_text.subset([]).token_occurrences()
        assert rows.size == tokens.size == weights.size == 0

    def test_class_counts(self, small_text):
        assert small_text.class_counts().tolist() == [2, 1]

    def test_repr(self, small_text):
        assert "small" in repr(small_text)


@pytest.fixture()
def small_seq():
    vocab = Vocabulary([f"t{i}" for i in range(6)])
    tag_names = ["O", "S-PER"]
    return SequenceDataset(
        [[2, 3], [4, 5, 6]], [[0, 1], [0, 0, 1]], vocab, tag_names, name="seq"
    )


class TestSequenceDataset:
    def test_len(self, small_seq):
        assert len(small_seq) == 2

    def test_token_tag_length_mismatch(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            SequenceDataset([[2, 2]], [[0]], vocab, ["O"])

    def test_sentence_count_mismatch(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            SequenceDataset([[2]], [[0], [0]], vocab, ["O"])

    def test_empty_tag_names(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            SequenceDataset([[2]], [[0]], vocab, [])

    def test_num_tags(self, small_seq):
        assert small_seq.num_tags == 2

    def test_subset(self, small_seq):
        sub = small_seq.subset([1])
        assert len(sub) == 1
        assert sub.tag_sequences[0].tolist() == [0, 0, 1]

    def test_total_tokens(self, small_seq):
        assert small_seq.total_tokens() == 5

    def test_tags_as_strings(self, small_seq):
        assert small_seq.tags_as_strings(0) == ["O", "S-PER"]

    def test_repr(self, small_seq):
        assert "seq" in repr(small_seq)


def _state(dataset) -> dict:
    """Every attribute, with arrays as lists so ``==`` compares them."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.tolist())
        if isinstance(value, list):
            return [plain(item) for item in value]
        return value

    return {key: plain(value) for key, value in vars(dataset).items()}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 2), max_size=7))
def test_subset_equals_validated_construction(indices):
    """``subset`` skips re-validation but builds exactly what the
    validating constructor would (negative and repeated indices too)."""
    vocab = Vocabulary([f"t{i}" for i in range(8)])
    sentences = [[2, 3, 4], [5], [7, 8, 9, 2]]
    text = TextDataset(sentences, [0, 1, 0], vocab, num_classes=2, name="small")
    expected = TextDataset(
        [sentences[i] for i in indices], [[0, 1, 0][i] for i in indices],
        vocab, num_classes=2, name="small",
    )
    assert _state(text.subset(indices)) == _state(expected)
    tags = [[0, 1, 0], [1], [0, 0, 1, 1]]
    seq = SequenceDataset(sentences, tags, vocab, ["O", "S-PER"], name="seq")
    expected = SequenceDataset(
        [sentences[i] for i in indices], [tags[i] for i in indices],
        vocab, ["O", "S-PER"], name="seq",
    )
    assert _state(seq.subset(indices)) == _state(expected)


def test_subset_out_of_range_raises():
    vocab = Vocabulary(["a"])
    with pytest.raises(IndexError):
        TextDataset([[2]], [0], vocab, 2).subset([1])
    with pytest.raises(IndexError):
        SequenceDataset([[2]], [[0]], vocab, ["O"]).subset([1])
