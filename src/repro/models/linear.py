"""Softmax regression over bag-of-words features.

This is the fast default classifier for active-learning experiments: it
retrains in milliseconds, exposes calibrated-enough probabilities for the
uncertainty strategies, and — because the loss gradient of a log-linear
model has closed form — supports the Expected Gradient Length strategy
exactly (Eq. 5) without per-sample backprop.

Training runs dense minibatches over the small labeled set's
:meth:`~repro.data.datasets.TextDataset.bag_of_words`; inference over the
(large) pool and test set sums weights over each sentence's token
occurrences (:meth:`~repro.data.datasets.TextDataset.token_occurrences`),
so no ``(n, |V|)`` matrix is built per prediction.
"""

from __future__ import annotations

import numpy as np

from ..data.datasets import TextDataset
from ..exceptions import ConfigurationError, NotFittedError
from ..rng import ensure_rng
from .base import (
    Classifier,
    bump_fit_generation,
    params_from_jsonable,
    params_to_jsonable,
    resolve_warm_epochs,
)
from .layers import Adam, minibatches, one_hot, softmax


class LinearSoftmax(Classifier):
    """Multinomial logistic regression on L1-normalised token counts.

    Parameters
    ----------
    epochs:
        Full passes of Adam per :meth:`fit` call.
    learning_rate:
        Adam step size.
    l2:
        L2 regularisation strength on the weight matrix.
    batch_size:
        Mini-batch size.
    seed:
        Seed for parameter init and batch shuffling; :meth:`fit` always
        restarts from the same init, so refits are deterministic.
    warm_epochs:
        Epoch budget when :meth:`fit` is given ``init_from``; defaults to
        ``epochs // 4`` (at least 1).
    """

    def __init__(
        self,
        epochs: int = 30,
        learning_rate: float = 0.5,
        l2: float = 1e-4,
        batch_size: int = 64,
        seed: int = 0,
        warm_epochs: "int | None" = None,
    ) -> None:
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        if l2 < 0:
            raise ConfigurationError(f"l2 must be non-negative, got {l2}")
        if warm_epochs is not None and warm_epochs <= 0:
            raise ConfigurationError(f"warm_epochs must be positive, got {warm_epochs}")
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.batch_size = batch_size
        self.seed = seed
        self.warm_epochs = warm_epochs
        self._weights: np.ndarray | None = None  # (V, C)
        self._bias: np.ndarray | None = None  # (C,)
        self._num_classes: int | None = None

    # -- training ---------------------------------------------------------

    def fit(
        self, dataset: TextDataset, init_from: "LinearSoftmax | None" = None
    ) -> "LinearSoftmax":
        if not len(dataset):
            raise ConfigurationError("cannot fit on an empty dataset")
        rng = ensure_rng(self.seed)
        features = dataset.bag_of_words()
        targets = one_hot(dataset.labels, dataset.num_classes)
        vocab_size = features.shape[1]
        self._num_classes = dataset.num_classes
        if init_from is None:
            epochs = self.epochs
            self._weights = np.zeros((vocab_size, dataset.num_classes))
            self._bias = np.zeros(dataset.num_classes)
        else:
            epochs = resolve_warm_epochs(self.epochs, self.warm_epochs)
            if not isinstance(init_from, LinearSoftmax):
                raise ConfigurationError(
                    f"cannot warm-start LinearSoftmax from {type(init_from).__name__}"
                )
            weights, bias = init_from._require_fitted()
            if weights.shape != (vocab_size, dataset.num_classes):
                raise ConfigurationError(
                    f"warm-start shape mismatch: previous model is {weights.shape}, "
                    f"dataset needs {(vocab_size, dataset.num_classes)}"
                )
            self._weights = weights.copy()
            self._bias = bias.copy()
        optimizer = Adam(learning_rate=self.learning_rate)
        params = {"W": self._weights, "b": self._bias}
        for _ in range(epochs):
            for batch in minibatches(len(dataset), self.batch_size, rng):
                x = features[batch]
                probabilities = softmax(x @ self._weights + self._bias)
                delta = (probabilities - targets[batch]) / len(batch)
                grads = {
                    "W": x.T @ delta + self.l2 * self._weights,
                    "b": delta.sum(axis=0),
                }
                optimizer.update(params, grads)
        bump_fit_generation(self)
        return self

    def clone(self) -> "LinearSoftmax":
        return LinearSoftmax(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            l2=self.l2,
            batch_size=self.batch_size,
            seed=self.seed,
            warm_epochs=self.warm_epochs,
        )

    # -- parameter state --------------------------------------------------

    def get_params(self) -> dict:
        weights, bias = self._require_fitted()
        return {
            "arrays": params_to_jsonable({"W": weights, "b": bias}),
            "meta": {"num_classes": int(self._num_classes)},
        }

    def set_params(self, state: dict) -> "LinearSoftmax":
        arrays = params_from_jsonable(state["arrays"])
        self._weights = arrays["W"]
        self._bias = arrays["b"]
        self._num_classes = int(state["meta"]["num_classes"])
        bump_fit_generation(self)
        return self

    # -- inference --------------------------------------------------------

    def _require_fitted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._weights is None or self._bias is None:
            raise NotFittedError("LinearSoftmax used before fit()")
        return self._weights, self._bias

    def _logits(self, dataset: TextDataset) -> np.ndarray:
        """``bag_of_words() @ W + b`` as a segment sum over token occurrences."""
        weights, bias = self._require_fitted()
        if len(dataset.vocab) != weights.shape[0]:
            raise ConfigurationError(
                f"vocabulary mismatch: model has {weights.shape[0]} features, "
                f"dataset has {len(dataset.vocab)}"
            )
        rows, tokens, values = dataset.token_occurrences()
        logits = np.empty((len(dataset), weights.shape[1]))
        for column in range(weights.shape[1]):
            logits[:, column] = np.bincount(
                rows, weights=values * weights[tokens, column], minlength=len(dataset)
            )
        return logits + bias

    def predict_proba(self, dataset: TextDataset) -> np.ndarray:
        return softmax(self._logits(dataset))

    def expected_gradient_lengths(self, dataset: TextDataset) -> np.ndarray:
        """Eq. (5) in closed form for a log-linear model.

        For sample ``x`` labeled ``y``, the gradient of the NLL w.r.t.
        ``(W, b)`` is ``(p - e_y) (x, 1)^T``, whose Frobenius norm is
        ``||p - e_y|| * sqrt(||x||^2 + 1)``.  The EGL score marginalises
        the norm over labels with weights ``p_y``.
        """
        probabilities = softmax(self._logits(dataset))
        rows, _, values = dataset.token_occurrences()
        squared_norms = np.bincount(rows, weights=values**2, minlength=len(dataset))
        feature_norms = np.sqrt(squared_norms + 1.0)
        # ||p - e_y||^2 = ||p||^2 - 2 p_y + 1, per candidate label y.
        squared = (probabilities**2).sum(axis=1, keepdims=True) - 2 * probabilities + 1.0
        residual_norms = np.sqrt(np.clip(squared, 0.0, None))
        expected = (probabilities * residual_norms).sum(axis=1)
        return expected * feature_norms

    @property
    def weights(self) -> np.ndarray:
        """The fitted ``(V, C)`` weight matrix (read-only view)."""
        weights, _ = self._require_fitted()
        return weights

    def __repr__(self) -> str:
        state = "fitted" if self._weights is not None else "unfitted"
        return f"LinearSoftmax(epochs={self.epochs}, lr={self.learning_rate}, {state})"
