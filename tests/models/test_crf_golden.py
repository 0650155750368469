"""Pin the CRF models' exact output, and the packed kernels to their oracles.

Two guarantees are checked here:

* fitted parameters and every inference output of the two CRF-output
  models hash to digests recorded from the per-sentence and
  exact-length-bucket kernels the packed lattice replaced, so no byte of
  any NER experiment moved;
* over random lattices (lengths 1-12, including all-length-1 batches and
  single sentences; 1-6 tags; emission scales up to 50) the packed
  kernels and ``LinearChainCRF.fit`` equal the per-sentence oracles in
  :mod:`tests.oracles` array for array.
"""

import hashlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import conll2003_english
from repro.data.datasets import SequenceDataset
from repro.data.vocab import Vocabulary
from repro.models import crf_core
from repro.models.bilstm_crf import BiLSTMCRF
from repro.models.crf import LinearChainCRF
from tests import oracles

DIGESTS = {
    "crf": "48c90759d42bb30509697964be4d6cbe90e60eb11f75fa5216c0344ac505263b",
    "crf_warm": "b324793128117e2279efbf795c8949c721b2af8d3856b82317b1306eb11e84b6",
    "bilstm_crf": "54d7bb01eebc7a961dc5001f255f1d4d35327e94683927985dc621e0bab87e6a",
}


@pytest.fixture(scope="module")
def corpus():
    data = conll2003_english(scale=0.05, seed_or_rng=0)
    return data.subset(range(120)), data.subset(range(120, len(data)))


@pytest.fixture(scope="module")
def fitted(corpus):
    train, _ = corpus
    crf = LinearChainCRF(epochs=3, seed=0).fit(train)
    return {
        "crf": crf,
        "crf_warm": LinearChainCRF(epochs=3, seed=1, warm_epochs=2).fit(
            train, init_from=crf
        ),
        "bilstm_crf": BiLSTMCRF(epochs=2, seed=0).fit(train.subset(range(60))),
    }


def model_digest(model, pool) -> str:
    """Parameters, then tags, path log-probas, marginals and MC draws."""
    digest = hashlib.sha256()
    for name in sorted(model._params):
        digest.update(name.encode() + b"|" + model._params[name].tobytes())
    for path in model.predict_tags(pool):
        digest.update(np.asarray(path, dtype=np.int64).tobytes() + b"|")
    digest.update(model.best_path_log_proba(pool).tobytes())
    for matrix in model.token_marginals(pool):
        digest.update(matrix.tobytes())
    for draws in model.token_marginal_samples(
        pool.subset(range(20)), 4, np.random.default_rng(5)
    ):
        digest.update(draws.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_digest(name, fitted, corpus):
    _, pool = corpus
    assert model_digest(fitted[name], pool) == DIGESTS[name]


# -- packed kernels vs the per-sentence oracles --------------------------------

lattices = st.fixed_dictionaries({
    "lengths": st.one_of(
        st.lists(st.integers(1, 12), min_size=1, max_size=12),
        st.lists(st.just(1), min_size=1, max_size=6),
        st.integers(1, 12).map(lambda length: [length]),
    ),
    "num_tags": st.one_of(st.integers(1, 6), st.sampled_from([9, 17])),
    "scale": st.sampled_from([0.01, 1.0, 5.0, 50.0]),
    "seed": st.integers(0, 2**32 - 1),
    "block_rows": st.sampled_from([1, 3, crf_core.BLOCK_ROWS]),
})


def _random_lattice(case):
    rng = np.random.default_rng(case["seed"])
    num_tags = case["num_tags"]
    emissions = [
        rng.uniform(-case["scale"], case["scale"], size=(length, num_tags))
        for length in case["lengths"]
    ]
    tags = [rng.integers(0, num_tags, size=length) for length in case["lengths"]]
    layer = (
        rng.normal(size=(num_tags, num_tags)),
        rng.normal(size=num_tags),
        rng.normal(size=num_tags),
    )
    return emissions, tags, layer


@settings(max_examples=150, deadline=None)
@given(lattices)
def test_packed_kernels_equal_oracles(case):
    emissions, tags, layer = _random_lattice(case)
    with patch.object(crf_core, "BLOCK_ROWS", case["block_rows"]):
        paths, best = crf_core.crf_decode(emissions, *layer)
        log_z = crf_core.crf_log_partition(emissions, *layer)
        marginals = crf_core.crf_token_marginals(emissions, *layer)
        d_emissions, d_transitions, d_start, d_end = crf_core.crf_gradients(
            emissions, tags, *layer
        )
    for row, matrix in enumerate(emissions):
        path, score = oracles.crf_viterbi(matrix, *layer)
        assert np.array_equal(paths[row], path)
        assert best[row] == score
        assert log_z[row] == oracles.crf_forward(matrix, *layer)[1]
        assert np.array_equal(marginals[row], oracles.crf_marginals(matrix, *layer))
        expected = oracles.crf_sentence_gradients(matrix, tags[row], *layer)
        assert np.array_equal(d_emissions[row], expected[0])
        assert np.array_equal(d_transitions[row], expected[1])
        assert np.array_equal(d_start[row], expected[2])
        assert np.array_equal(d_end[row], expected[3])


@settings(max_examples=60, deadline=None)
@given(lattices)
def test_all_live_block_equals_oracle(case):
    """MC draws of one sentence: a block whose rows are all live."""
    emissions, _, layer = _random_lattice(case)
    length = case["lengths"][0]
    draws = np.stack([
        np.resize(matrix, (length, case["num_tags"])) for matrix in emissions
    ])
    marginals = crf_core.packed_marginals(
        draws, np.full(len(draws), length), *layer
    )
    for row, matrix in enumerate(draws):
        assert np.array_equal(marginals[row], oracles.crf_marginals(matrix, *layer))


def _random_corpus(rng, lengths, num_tags, vocab_size=9):
    vocab = Vocabulary([f"t{i}" for i in range(vocab_size - 2)])
    sentences = [rng.integers(0, vocab_size, size=length) for length in lengths]
    tags = [rng.integers(0, num_tags, size=length) for length in lengths]
    return SequenceDataset(sentences, tags, vocab, [f"T{i}" for i in range(num_tags)])


@settings(max_examples=40, deadline=None)
@given(lattices, st.integers(1, 8))
def test_linear_crf_fit_equals_oracle(case, batch_size):
    dataset = _random_corpus(
        np.random.default_rng(case["seed"]), case["lengths"], case["num_tags"]
    )
    hyper = dict(epochs=2, batch_size=batch_size, learning_rate=0.5, seed=3)
    packed = LinearChainCRF(**hyper).fit(dataset)
    expected = oracles.crf_fit_reference(LinearChainCRF(**hyper), dataset)
    for name, value in expected.items():
        assert np.array_equal(packed._params[name], value), name


@settings(max_examples=10, deadline=None)
@given(lattices)
def test_bilstm_crf_fit_equals_oracle(case):
    dataset = _random_corpus(
        np.random.default_rng(case["seed"]), case["lengths"], case["num_tags"]
    )
    embedding = np.random.default_rng(1).normal(size=(len(dataset.vocab), 4))
    hyper = dict(
        embedding_dim=4, hidden_dim=3, epochs=1, batch_size=4, seed=2,
        embedding_matrix=embedding,
    )
    packed = BiLSTMCRF(**hyper).fit(dataset)
    expected = oracles.bilstm_crf_fit_reference(BiLSTMCRF(**hyper), dataset)
    for name, value in expected.items():
        assert np.array_equal(packed._params[name], value), name
