"""In-memory span tracer wrapped around the program's public entry points.

The tracer patches class attributes (and, for functions imported by
name, every ``repro.*`` module attribute bound to the original
function), so the program's own source is untouched.  A span records
its name, start, end, parent, process and a trace id (one per grid cell
or per service session).  Spans stay in memory; the main process writes
them when the traced run ends, and a forked worker appends its spans to
its own file each time one of its root spans closes, so a worker killed
between cells loses nothing it finished.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: The ``repro`` module prefix whose attributes the installer rebinds.
PACKAGE = "repro"


class Tracer:
    """Collects spans per process; see the module docstring."""

    def __init__(self, out_dir: "str | Path") -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.root_pid = os.getpid()
        self._reset()
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        """Fresh per-process state (also the fork hook: drop the parent's spans)."""
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, function, args, kwargs, trace_id=None):
        """Call ``function`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if trace_id is None and parent is not None:
            trace_id = parent[1]
        stack.append((span_id, trace_id))
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent[0] if parent else 0, name, trace_id, start, end)
            )
            if not stack and self.pid != self.root_pid:
                self.flush()

    def flush(self) -> None:
        """Append this process's buffered spans to ``spans.<pid>.jsonl``."""
        if not self.spans:
            return
        spans, self.spans = self.spans, []
        path = self.out_dir / f"spans.{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, parent, name, trace_id, start, end in spans:
                handle.write(json.dumps({
                    "pid": self.pid, "id": span_id, "parent": parent,
                    "name": name, "trace": trace_id, "start": start, "end": end,
                }) + "\n")

    # -- patching ----------------------------------------------------------

    def wrap(self, function, name, trace_of=None):
        """A wrapper recording a span around every call of ``function``.

        ``name`` is a string or a callable of the call's arguments
        (per-state engine steps); ``trace_of`` derives a trace id from
        the arguments for root spans (cells, sessions).
        """
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            trace_id = trace_of(args, kwargs) if trace_of is not None else None
            return tracer.record(label, function, args, kwargs, trace_id)

        return functools.update_wrapper(traced, function)

    def patch_method(self, cls, attribute: str, name, trace_of=None) -> None:
        """Wrap ``cls.attribute`` (plain, class- or static method)."""
        raw = None
        for klass in cls.__mro__:
            if attribute in klass.__dict__:
                raw = klass.__dict__[attribute]
                break
        if raw is None:
            raise AttributeError(f"{cls.__name__} has no {attribute!r}")
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, trace_of))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, trace_of))
        else:
            replacement = self.wrap(raw, name, trace_of)
        self._patches.append((cls, attribute, cls.__dict__.get(attribute, _MISSING)))
        setattr(cls, attribute, replacement)

    def patch_function(self, function, name, trace_of=None) -> None:
        """Rebind ``function`` in every loaded ``repro`` module that holds it.

        Patching only the defining module would miss callers that
        imported the function by name.
        """
        wrapper = self.wrap(function, name, trace_of)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attribute, value))
                    setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


_MISSING = object()


# -- what gets traced ------------------------------------------------------


def _cell_trace(args, kwargs) -> str:
    return f"cell:{kwargs.get('strategy_name')}/{kwargs.get('repeat', 0)}"


def _session_trace(args, kwargs) -> str:
    return f"session:{args[1]}" if len(args) > 1 else "session:new"


def _create_trace(args, kwargs) -> str:
    body = args[1] if len(args) > 1 else {}
    return f"session:{body.get('id')}" if isinstance(body, dict) else "session:new"


def _step_name(args, kwargs) -> str:
    return f"core.{args[0].state.value}"


#: Model families the ledger reports, by class name.
MODEL_FAMILIES = {"LinearSoftmax": "linear", "LinearChainCRF": "crf", "LSTMRegressor": "lstm"}


def _model_methods(cls) -> "list[str]":
    """``fit`` and every ``predict*`` / decode entry point a family exposes."""
    names = set()
    for klass in cls.__mro__[:-1]:
        for attribute, value in klass.__dict__.items():
            if not callable(value) or attribute.startswith("_"):
                continue
            if attribute == "fit" or attribute.startswith("predict") or attribute in (
                "decode", "emissions"
            ):
                names.add(attribute)
    return sorted(names)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (see the module docstring)."""
    from repro.core.features import RankingFeatureExtractor
    from repro.core.history import HistoryStore
    from repro.core.ranker_training import train_lhs_ranker
    from repro.core.session import SessionEngine
    from repro.core.strategies.base import QueryStrategy
    from repro.data.datasets import TextDataset
    from repro.eval.pipeline import MetricPipeline
    from repro.experiments import runner
    from repro.experiments.checkpoint import CheckpointStore
    from repro.ltr.lambdamart import LambdaMART
    from repro.models.crf import LinearChainCRF
    from repro.models.linear import LinearSoftmax
    from repro.models.lstm import LSTMRegressor
    from repro.service.app import SessionService
    from repro.service.server import SessionRequestHandler
    from repro.service.store import JsonSessionStore, SqliteSessionStore
    from repro.specs import ExperimentSpec
    from repro.specs.data import build_dataset, build_split
    from repro.specs.models import build_model
    from repro.specs.strategies import build_strategy
    from repro.specs.transforms import ScenarioSpec

    # data: corpus generation, featurization, scenario perturbations
    tracer.patch_function(build_dataset, "data.build")
    tracer.patch_function(build_split, "data.build")
    tracer.patch_method(ExperimentSpec, "build_datasets", "data.build")
    tracer.patch_method(TextDataset, "bag_of_words", "data.featurize")
    tracer.patch_method(ScenarioSpec, "apply", "data.transform")
    # spec builders
    tracer.patch_function(build_model, "specs.build")
    tracer.patch_function(build_strategy, "specs.build")
    # models
    for cls in (LinearSoftmax, LinearChainCRF, LSTMRegressor):
        family = MODEL_FAMILIES[cls.__name__]
        for attribute in _model_methods(cls):
            kind = "fit" if attribute == "fit" else "predict"
            tracer.patch_method(cls, attribute, f"models.{family}.{kind}")
    # core: engine phases by prior state, selection, history, LHS
    tracer.patch_method(SessionEngine, "step", _step_name)
    tracer.patch_method(SessionEngine, "snapshot", "core.snapshot")
    tracer.patch_method(SessionEngine, "restore", "core.restore")
    for cls in _subclasses(QueryStrategy):
        if "select" in cls.__dict__:
            tracer.patch_method(cls, "select", "core.select")
    tracer.patch_method(HistoryStore, "append", "core.history_append")
    tracer.patch_method(RankingFeatureExtractor, "extract", "core.lhs_features")
    tracer.patch_function(train_lhs_ranker, "core.ranker_train")
    # ltr, eval
    tracer.patch_method(LambdaMART, "fit", "ltr.fit")
    tracer.patch_method(MetricPipeline, "compute", "eval.pipeline")
    # experiments: cells (serial and pool workers), pool wait, checkpoints
    tracer.patch_function(runner._run_cell, "experiments.cell", _cell_trace)
    tracer.patch_function(runner._run_pool, "wait.pool")
    tracer.patch_method(CheckpointStore, "save", "experiments.checkpoint_save")
    tracer.patch_method(CheckpointStore, "save_session", "experiments.checkpoint_save")
    # service: HTTP handling (decode, dispatch, encode), operations, stores
    tracer.patch_method(SessionRequestHandler, "_handle", "service.http")
    tracer.patch_method(SessionService, "create", "service.create", _create_trace)
    for operation in ("propose", "ingest", "status", "result", "events", "delete"):
        tracer.patch_method(
            SessionService, operation, f"service.{operation}", _session_trace
        )
    for cls, store in ((JsonSessionStore, "json"), (SqliteSessionStore, "sqlite")):
        tracer.patch_method(cls, "save", f"service.{store}.save")
        tracer.patch_method(cls, "load", f"service.{store}.load")
        if "create" in cls.__dict__:
            tracer.patch_method(cls, "create", f"service.{store}.save")


def _subclasses(cls) -> list:
    found, queue = [], [cls]
    while queue:
        current = queue.pop()
        found.append(current)
        queue.extend(current.__subclasses__())
    return found


# -- reading spans back ----------------------------------------------------


def load_spans(trace_dir: "str | Path") -> "list[dict]":
    """Every span every process of a traced run wrote."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans.*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: "list[dict]") -> "list[dict]":
    """Each span with ``self``: its duration minus its direct children's.

    Children are matched by ``(pid, parent)``; spans of different
    threads never nest, because each thread keeps its own stack.
    """
    children = defaultdict(float)
    for span in spans:
        if span["parent"]:
            children[(span["pid"], span["parent"])] += span["end"] - span["start"]
    return [
        dict(span, self=(span["end"] - span["start"]) - children[(span["pid"], span["id"])])
        for span in spans
    ]


def top_level(spans: "list[dict]", prefix: str) -> "list[dict]":
    """Spans named ``prefix``* whose parent is not itself named ``prefix``*.

    Call counts use these, so a ``decode`` that calls ``emissions`` is
    one predict call, not two.
    """
    by_key = {(span["pid"], span["id"]): span for span in spans}
    outer = []
    for span in spans:
        if not span["name"].startswith(prefix):
            continue
        parent = by_key.get((span["pid"], span["parent"]))
        if parent is None or not parent["name"].startswith(prefix):
            outer.append(span)
    return outer


def layer_of(name: str) -> str:
    """The ledger layer of a span name: its first dotted component."""
    return name.split(".", 1)[0]
