"""Persisted inputs that carry a removed option.

Experiment documents, sweep overrides, session snapshots, cell
checkpoints and queue envelopes written while ``HistoryStore`` had
selectable buffer backends may still name one (``history_backend``);
experiment documents and queue envelopes written while the work queue
had a sqlite backend name the queue backend (``runner.queue_backend``).
Every backend gave byte-identical results, so each reader accepts the
key with one of its former values and drops it; any other value raises
the reader's typed error.  A queue actually materialized with the sqlite
backend cannot be opened and asks for a fresh queue directory.
"""

import dataclasses
import json

import pytest

from repro.core.session import SessionEngine, run_to_completion
from repro.core.strategies import Random
from repro.exceptions import CheckpointError, QueueError, SessionError, SpecError
from repro.experiments import CheckpointStore, ExperimentConfig
from repro.experiments.distributed import create_queue, open_queue, run_worker
from repro.experiments.runner import grid_repeat_seeds
from repro.formats import SWEEP_FORMAT, SWEEP_VERSION
from repro.service import JsonSessionStore, SessionService
from repro.specs import ExperimentSpec, SweepSpec

from .experiments.test_checkpoint import (
    CONFIG_KWARGS,
    assert_results_identical,
    compare,
    plain_model,
)
from .experiments.test_distributed import make_spec
from .service.test_app import RECIPE

KEY = "history_backend"
LEGACY_VALUES = ("local", "shared", "mmap")
QUEUE_KEY = "queue_backend"
QUEUE_VALUES = ("file", "sqlite")
#: What opening a queue materialized with a removed backend asks for.
FRESH_QUEUE = "fresh queue directory"


def read_experiment_document(value, tmp_path, text_dataset):
    document = make_spec().to_dict()
    document["experiment"][KEY] = value
    assert ExperimentSpec.from_dict(document).to_dict() == make_spec().to_dict()


def read_sweep_override(value, tmp_path, text_dataset):
    sweep = SweepSpec.from_dict(
        {
            "format": SWEEP_FORMAT,
            "version": SWEEP_VERSION,
            "base": make_spec().to_dict(),
            "axes": [
                {
                    "name": "shape",
                    "cells": [{"name": "one", "experiment": {KEY: value, "rounds": 1}}],
                }
            ],
        }
    )
    [cell] = sweep.cells()
    assert KEY not in cell.document["experiment"]
    assert cell.spec.config == dataclasses.replace(make_spec().config, rounds=1)


def read_service_snapshot(value, tmp_path, text_dataset):
    store = JsonSessionStore(tmp_path / "sessions")
    SessionService({"json": store}).create({"recipe": RECIPE, "id": "s1"})
    expected = SessionService({"json": store}).status("s1")
    row = store.load("s1")
    document = row.document
    document["session"]["config"][KEY] = value
    store.save("s1", document, expected_version=row.version)
    assert SessionService({"json": store}).status("s1") == expected


def read_checkpoints(value, tmp_path, text_dataset):
    clean = compare(text_dataset)
    directory = tmp_path / "ckpt"
    compare(text_dataset, checkpoint_dir=str(directory))
    # Leave the first Random cell in flight: drop its completed file and
    # write the round-0 session snapshot the parent build would have.
    config = ExperimentConfig(**CONFIG_KWARGS)
    store = CheckpointStore(directory, config)
    store.cell_path("Random", 0).unlink()
    seed = int(grid_repeat_seeds(config)[0])
    train, test = text_dataset.subset(range(200)), text_dataset.subset(range(200, 300))
    engine = SessionEngine(
        plain_model(), Random(), train, test,
        batch_size=config.batch_size, rounds=config.rounds, seed_or_rng=seed,
    )

    class Stop(Exception):
        pass

    def save_and_stop(running):
        store.save_session("Random", 0, seed, running.snapshot())
        raise Stop

    with pytest.raises(Stop):
        run_to_completion(engine, on_round_committed=save_and_stop)
    for path in [*directory.glob("cell_*.json"), *directory.glob("session_*.json")]:
        payload = json.loads(path.read_text())
        payload[KEY] = value
        if "session" in payload:
            payload["session"]["config"][KEY] = value
        path.write_text(json.dumps(payload))
    resumed = compare(text_dataset, checkpoint_dir=str(directory), resume=True)
    assert_results_identical(clean, resumed)
    assert list(directory.glob("session_*.json")) == []


def read_queue_envelope(value, tmp_path, text_dataset):
    directory = tmp_path / "queue"
    create_queue(directory, make_spec())
    envelope_path = directory / "queue.json"
    envelope = json.loads(envelope_path.read_text())
    envelope["experiment"]["experiment"][KEY] = value
    envelope_path.write_text(json.dumps(envelope))
    reopened = create_queue(directory, make_spec())
    assert reopened.experiment["experiment"][KEY] == value


def read_runner_section(value, tmp_path, text_dataset):
    document = make_spec().to_dict()
    document["runner"][QUEUE_KEY] = value
    assert ExperimentSpec.from_dict(document).to_dict() == make_spec().to_dict()


def write_legacy_envelope(directory, key, value):
    """A queue whose envelope embeds ``runner[key] = value``."""
    create_queue(directory, make_spec())
    envelope_path = directory / "queue.json"
    envelope = json.loads(envelope_path.read_text())
    envelope["experiment"]["runner"][key] = value
    envelope_path.write_text(json.dumps(envelope))


def read_queue_envelope_runner(value, tmp_path, text_dataset):
    directory = tmp_path / "queue"
    write_legacy_envelope(directory, QUEUE_KEY, value)
    reopened = create_queue(directory, make_spec())
    assert reopened.experiment["runner"][QUEUE_KEY] == value


def read_queue_worker(value, tmp_path, text_dataset):
    directory = tmp_path / "queue"
    write_legacy_envelope(directory, QUEUE_KEY, value)
    summary = run_worker(directory, owner="legacy", max_cells=0)
    assert summary["completed"] == 0


def read_queue_envelope_backend(value, tmp_path, text_dataset):
    directory = tmp_path / "queue"
    create_queue(directory, make_spec())
    envelope_path = directory / "queue.json"
    envelope = json.loads(envelope_path.read_text())
    envelope["backend"] = value
    envelope_path.write_text(json.dumps(envelope))
    assert open_queue(directory).tickets


#: reader -> (read, typed error, error match, accepted values, rejected values)
READERS = {
    "experiment_document": (read_experiment_document, SpecError, KEY, LEGACY_VALUES, ("redis",)),
    "sweep_override": (read_sweep_override, SpecError, KEY, LEGACY_VALUES, ("redis",)),
    "service_snapshot": (read_service_snapshot, SessionError, KEY, LEGACY_VALUES, ("redis",)),
    "checkpoints": (read_checkpoints, CheckpointError, KEY, LEGACY_VALUES, ("redis",)),
    "queue_envelope": (read_queue_envelope, SpecError, KEY, LEGACY_VALUES, ("redis",)),
    "runner_section": (read_runner_section, SpecError, QUEUE_KEY, QUEUE_VALUES, ("redis",)),
    "queue_envelope_runner": (
        read_queue_envelope_runner, SpecError, QUEUE_KEY, QUEUE_VALUES, ("redis",)
    ),
    "queue_worker": (read_queue_worker, SpecError, QUEUE_KEY, QUEUE_VALUES, ("redis",)),
    "queue_envelope_backend": (
        read_queue_envelope_backend, QueueError, FRESH_QUEUE, ("file",), ("sqlite", "redis")
    ),
}


def cases(match):
    """``(reader, value)`` pairs of every reader whose error matches ``match``."""
    return [
        (reader, value)
        for reader, (_, _, row_match, accepted, rejected) in sorted(READERS.items())
        if row_match == match
        for value in (*accepted, *rejected)
    ]


def check_reader(reader, value, tmp_path, text_dataset):
    read, error, match, accepted, _ = READERS[reader]
    if value in accepted:
        read(value, tmp_path, text_dataset)
    else:
        with pytest.raises(error, match=match):
            read(value, tmp_path, text_dataset)


@pytest.mark.parametrize("reader, value", cases(KEY))
def test_legacy_history_backend_key(reader, value, tmp_path, text_dataset):
    check_reader(reader, value, tmp_path, text_dataset)


@pytest.mark.parametrize("reader, value", cases(QUEUE_KEY) + cases(FRESH_QUEUE))
def test_legacy_queue_backend(reader, value, tmp_path, text_dataset):
    check_reader(reader, value, tmp_path, text_dataset)
