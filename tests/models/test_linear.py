"""Tests for the LinearSoftmax classifier, including its closed-form EGL."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.datasets import TextDataset
from repro.data.vocab import Vocabulary
from repro.exceptions import ConfigurationError, NotFittedError
from repro.models.layers import Adam, minibatches, one_hot, softmax
from repro.models.linear import LinearSoftmax
from repro.rng import ensure_rng


class TestFitPredict:
    def test_learns_separable_data(self, text_dataset):
        train = text_dataset.subset(range(400))
        test = text_dataset.subset(range(400, 600))
        model = LinearSoftmax(epochs=20, seed=0).fit(train)
        assert model.accuracy(test) > 0.75

    def test_probabilities_shape_and_simplex(self, fitted_classifier, text_dataset):
        probs = fitted_classifier.predict_proba(text_dataset.subset(range(20)))
        assert probs.shape == (20, 2)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_predict_matches_argmax(self, fitted_classifier, text_dataset):
        subset = text_dataset.subset(range(15))
        probs = fitted_classifier.predict_proba(subset)
        assert np.array_equal(fitted_classifier.predict(subset), probs.argmax(axis=1))

    def test_deterministic_given_seed(self, text_dataset):
        train = text_dataset.subset(range(100))
        a = LinearSoftmax(epochs=5, seed=3).fit(train)
        b = LinearSoftmax(epochs=5, seed=3).fit(train)
        assert np.allclose(a.weights, b.weights)

    def test_different_seeds_differ(self, text_dataset):
        train = text_dataset.subset(range(100))
        a = LinearSoftmax(epochs=3, seed=1).fit(train)
        b = LinearSoftmax(epochs=3, seed=2).fit(train)
        assert not np.allclose(a.weights, b.weights)

    def test_refit_resets(self, text_dataset):
        model = LinearSoftmax(epochs=5, seed=0)
        model.fit(text_dataset.subset(range(100)))
        first = model.weights.copy()
        model.fit(text_dataset.subset(range(100)))
        assert np.allclose(model.weights, first)

    def test_empty_dataset_rejected(self, text_dataset):
        with pytest.raises(ConfigurationError):
            LinearSoftmax().fit(text_dataset.subset([]))

    def test_accuracy_on_empty_is_zero(self, fitted_classifier, text_dataset):
        assert fitted_classifier.accuracy(text_dataset.subset([])) == 0.0


class TestNotFitted:
    def test_predict_before_fit(self, text_dataset):
        with pytest.raises(NotFittedError):
            LinearSoftmax().predict_proba(text_dataset)

    def test_egl_before_fit(self, text_dataset):
        with pytest.raises(NotFittedError):
            LinearSoftmax().expected_gradient_lengths(text_dataset)

    def test_weights_before_fit(self):
        with pytest.raises(NotFittedError):
            LinearSoftmax().weights


class TestClone:
    def test_clone_is_unfitted(self, fitted_classifier):
        clone = fitted_classifier.clone()
        with pytest.raises(NotFittedError):
            clone.weights

    def test_clone_copies_hyperparameters(self):
        model = LinearSoftmax(epochs=7, learning_rate=0.3, l2=0.01, batch_size=16, seed=5)
        clone = model.clone()
        assert (clone.epochs, clone.learning_rate, clone.l2, clone.batch_size, clone.seed) == (
            7, 0.3, 0.01, 16, 5,
        )


class TestEGL:
    def test_matches_brute_force(self, fitted_classifier, text_dataset):
        """The closed form must equal explicit per-label gradient norms."""
        subset = text_dataset.subset(range(10))
        scores = fitted_classifier.expected_gradient_lengths(subset)
        features = subset.bag_of_words()
        probs = fitted_classifier.predict_proba(subset)
        for i in range(10):
            x = features[i]
            expected = 0.0
            for label in range(2):
                residual = probs[i].copy()
                residual[label] -= 1.0
                grad_w = np.outer(x, residual)
                grad_norm = np.sqrt((grad_w**2).sum() + (residual**2).sum())
                expected += probs[i, label] * grad_norm
            assert np.isclose(scores[i], expected, rtol=1e-10)

    def test_scores_nonnegative(self, fitted_classifier, text_dataset):
        scores = fitted_classifier.expected_gradient_lengths(text_dataset.subset(range(50)))
        assert (scores >= 0).all()

    def test_confident_samples_score_lower(self, fitted_classifier, text_dataset):
        subset = text_dataset.subset(range(200))
        scores = fitted_classifier.expected_gradient_lengths(subset)
        confidence = fitted_classifier.predict_proba(subset).max(axis=1)
        most_confident = confidence > np.quantile(confidence, 0.9)
        least_confident = confidence < np.quantile(confidence, 0.1)
        assert scores[least_confident].mean() > scores[most_confident].mean()


class TestValidation:
    def test_bad_epochs(self):
        with pytest.raises(ConfigurationError):
            LinearSoftmax(epochs=0)

    def test_bad_l2(self):
        with pytest.raises(ConfigurationError):
            LinearSoftmax(l2=-1)

    def test_repr_shows_state(self, text_dataset):
        model = LinearSoftmax()
        assert "unfitted" in repr(model)
        model.fit(text_dataset.subset(range(50)))
        assert "fitted" in repr(model)


# -- sparse inference against the dense bag-of-words oracle -------------------


@st.composite
def corpora(draw):
    """A random corpus (empty sentences and repeated tokens included), a
    ``subset()`` view of it with repeated indices, and bounded parameters."""
    vocab_size = draw(st.integers(2, 12))
    num_classes = draw(st.integers(2, 4))
    sentences = draw(st.lists(
        st.lists(st.integers(0, vocab_size - 1), max_size=10), min_size=1, max_size=25
    ))
    labels = draw(st.lists(
        st.integers(0, num_classes - 1), min_size=len(sentences), max_size=len(sentences)
    ))
    vocab = Vocabulary([f"t{i}" for i in range(vocab_size - 2)])
    dataset = TextDataset(sentences, labels, vocab, num_classes)
    view = dataset.subset(draw(st.lists(st.integers(0, len(dataset) - 1), max_size=30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # |logit| <= 2 keeps every class probability well away from 0 and 1,
    # where the closed-form EGL residual ||p - e_y|| loses relative precision.
    params = {
        "arrays": {
            "W": rng.uniform(-1, 1, (vocab_size, num_classes)).tolist(),
            "b": rng.uniform(-1, 1, num_classes).tolist(),
        },
        "meta": {"num_classes": num_classes},
    }
    return dataset, view, LinearSoftmax().set_params(params)


def dense_proba(model, dataset):
    return softmax(dataset.bag_of_words() @ model.weights + model._bias)


def dense_egl(model, dataset):
    """The closed-form EGL evaluated on the dense bag-of-words matrix."""
    features = dataset.bag_of_words()
    probabilities = dense_proba(model, dataset)
    squared = (probabilities**2).sum(axis=1, keepdims=True) - 2 * probabilities + 1.0
    expected = (probabilities * np.sqrt(np.clip(squared, 0.0, None))).sum(axis=1)
    return expected * np.sqrt((features**2).sum(axis=1) + 1.0)


def dense_fit(model, dataset):
    """``LinearSoftmax.fit`` written out over the dense bag-of-words matrix."""
    rng = ensure_rng(model.seed)
    features = dataset.bag_of_words()
    targets = one_hot(dataset.labels, dataset.num_classes)
    weights = np.zeros((features.shape[1], dataset.num_classes))
    bias = np.zeros(dataset.num_classes)
    optimizer = Adam(learning_rate=model.learning_rate)
    params = {"W": weights, "b": bias}
    for _ in range(model.epochs):
        for batch in minibatches(len(dataset), model.batch_size, rng):
            x = features[batch]
            delta = (softmax(x @ weights + bias) - targets[batch]) / len(batch)
            optimizer.update(params, {"W": x.T @ delta + model.l2 * weights, "b": delta.sum(axis=0)})
    return weights, bias


class TestSparseInferenceOracle:
    @settings(max_examples=60, deadline=None)
    @given(corpora())
    def test_predict_proba_matches_dense(self, corpus):
        dataset, view, model = corpus
        for part in (dataset, view):
            np.testing.assert_allclose(
                model.predict_proba(part), dense_proba(model, part), rtol=1e-12, atol=0
            )

    @settings(max_examples=60, deadline=None)
    @given(corpora())
    def test_egl_matches_dense_closed_form(self, corpus):
        dataset, view, model = corpus
        for part in (dataset, view):
            np.testing.assert_allclose(
                model.expected_gradient_lengths(part), dense_egl(model, part),
                rtol=1e-12, atol=0,
            )

    @settings(max_examples=30, deadline=None)
    @given(corpora())
    def test_fit_is_bit_identical_to_dense_fit(self, corpus):
        dataset, _, _ = corpus
        model = LinearSoftmax(epochs=3, batch_size=4, seed=7).fit(dataset)
        weights, bias = dense_fit(model, dataset)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model._bias, bias)

    def test_token_occurrences_are_cached_per_instance(self, text_dataset):
        view = text_dataset.subset(range(30))
        assert view.token_occurrences() is view.token_occurrences()

    @pytest.mark.parametrize("method", ["predict_proba", "expected_gradient_lengths"])
    def test_vocabulary_mismatch_rejected(self, fitted_classifier, method):
        vocab = Vocabulary([f"t{i}" for i in range(5)])
        other = TextDataset([[2, 3], []], [0, 1], vocab, num_classes=2)
        with pytest.raises(ConfigurationError, match="vocabulary mismatch"):
            getattr(fitted_classifier, method)(other)
