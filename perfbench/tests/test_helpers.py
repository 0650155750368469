"""Self-tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402
from tracing import Tracer, load_spans, self_times, top_level  # noqa: E402


# -- percentiles -------------------------------------------------------------


def test_percentile_interpolates_and_counts_samples():
    assert stats.percentile([4, 1, 3, 2], 50) == (2.5, 4)
    assert stats.percentile([1, 2, 3, 4], 0) == (1.0, 4)
    assert stats.percentile([1, 2, 3, 4], 100) == (4.0, 4)
    value, count = stats.percentile(range(1, 101), 99)
    assert count == 100
    assert value == pytest.approx(99.01)


def test_percentile_matches_numpy_linear_method():
    numpy = pytest.importorskip("numpy")
    values = [0.3, 7.0, 1.5, 2.25, 9.0, 4.0, 4.0]
    for q in (0, 10, 50, 90, 99, 100):
        assert stats.percentile(values, q)[0] == pytest.approx(numpy.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_normalised_auc():
    assert stats.normalised_auc([10, 20, 30], [0.5, 0.5, 0.5]) == pytest.approx(0.5)
    assert stats.normalised_auc([0, 10], [0.0, 1.0]) == pytest.approx(0.5)
    assert stats.normalised_auc([25], [0.7]) == 0.7


# -- open-loop timing ----------------------------------------------------------


def test_due_time_latency_charges_generator_stalls():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 2.0]   # the second request left half a second late
    done = [0.1, 1.6, 2.1]
    latencies = stats.due_latencies(due, done)
    assert latencies == pytest.approx([0.1, 0.6, 0.1])
    # Timed from the send instead, the stall would vanish:
    assert [d - s for s, d in zip(sent, done)] == pytest.approx([0.1, 0.1, 0.1])


def test_generator_lag_is_late_sends_never_negative():
    assert stats.generator_lag([0.0, 1.0, 2.0], [0.0, 1.25, 1.9]) == pytest.approx(
        [0.0, 0.25, 0.0]
    )
    with pytest.raises(ValueError):
        stats.generator_lag([0.0], [])


def test_slo_attainment_counts_failures_as_misses():
    assert stats.slo_attainment([10, 20, 600], limit=500) == pytest.approx(2 / 3)
    assert stats.slo_attainment([10, 20], limit=500, failures=2) == pytest.approx(0.5)


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"pid": 1, "id": 1, "parent": 0, "name": "core.train", "start": 0.0, "end": 10.0},
        {"pid": 1, "id": 2, "parent": 1, "name": "models.linear.fit", "start": 1.0, "end": 7.0},
        {"pid": 1, "id": 3, "parent": 2, "name": "data.featurize", "start": 2.0, "end": 5.0},
        # same ids in another process never nest with process 1's spans
        {"pid": 2, "id": 2, "parent": 0, "name": "experiments.cell", "start": 0.0, "end": 4.0},
    ]
    by_name = {s["name"]: s["self"] for s in self_times(spans)}
    assert by_name == pytest.approx({
        "core.train": 4.0, "models.linear.fit": 3.0, "data.featurize": 3.0,
        "experiments.cell": 4.0,
    })


def test_top_level_counts_nested_family_calls_once():
    spans = [
        {"pid": 1, "id": 1, "parent": 0, "name": "models.crf.predict", "start": 0, "end": 2},
        {"pid": 1, "id": 2, "parent": 1, "name": "models.crf.predict", "start": 0, "end": 1},
        {"pid": 1, "id": 3, "parent": 0, "name": "models.crf.predict", "start": 3, "end": 4},
    ]
    assert [s["id"] for s in top_level(spans, "models.crf.predict")] == [1, 3]


class _Model:
    def fit(self, delay):
        time.sleep(delay)
        return self.predict(delay)

    def predict(self, delay):
        time.sleep(delay)
        return "done"


def test_tracer_records_nested_spans_and_restores_patches(tmp_path):
    original_fit = _Model.fit
    tracer = Tracer(tmp_path)
    tracer.patch_method(_Model, "fit", "models.toy.fit", lambda a, k: "trace-1")
    tracer.patch_method(_Model, "predict", "models.toy.predict")
    assert _Model().fit(0.01) == "done"
    tracer.flush()
    tracer.uninstall()
    assert _Model.fit is original_fit
    spans = {s["name"]: s for s in self_times(load_spans(tmp_path))}
    fit, predict = spans["models.toy.fit"], spans["models.toy.predict"]
    assert predict["parent"] == fit["id"] and fit["parent"] == 0
    assert predict["trace"] == fit["trace"] == "trace-1"
    assert fit["self"] == pytest.approx(fit["end"] - fit["start"] - (predict["end"] - predict["start"]))
    assert fit["self"] >= 0.009 and predict["self"] >= 0.009
