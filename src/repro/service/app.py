"""The transport-independent AL session service.

:class:`SessionService` hosts many concurrent
:class:`~repro.core.session.SessionEngine` sessions, each addressed by
id and persisted through a pluggable
:class:`~repro.service.store.SessionStore`.  Every mutation follows the
same discipline: lock the session (serialising the threads of *this*
process), drive the engine, then write the updated document back with a
version-checked compare-and-swap (catching writers in *other*
processes).  A lost CAS surfaces as
:class:`~repro.exceptions.StoreConflictError` — HTTP 409 — and the
cached engine is dropped so the next request reloads the winner's state.

:func:`dispatch` maps ``(method, path, query, body)`` requests onto the
service and domain errors onto HTTP statuses.  It is the single routing
table both transports share: the :mod:`~repro.service.server` HTTP
front end and the :class:`~repro.service.client.InProcessTransport`
call the same function, which is what makes a session driven over HTTP
byte-identical to one driven in process.
"""

from __future__ import annotations

import math
import threading
from functools import partial
from types import SimpleNamespace

from ..core.session import SessionEngine, SessionState
from ..data.datasets import SequenceDataset
from ..eval.curves import LearningCurve
from ..eval.pipeline import MetricContext
from ..exceptions import (
    ConfigurationError,
    IngestError,
    ReproError,
    ServiceError,
    SessionError,
    SpecError,
    StoreConflictError,
    StoreError,
)
from ..formats import SESSION_DIR_FORMAT, SESSION_DIR_VERSION
from ..ioutil import validate_envelope
from ..specs import (
    ExperimentSpec,
    Spec,
    build_dataset,
    build_model,
    build_pipeline,
    build_split,
    build_strategy,
    default_model_spec,
    parse_strategy_shorthand,
)
from ..specs.experiment import drop_legacy_snapshot_options
from .events import SessionEventFeed
from .store import SessionStore, checked_session_id

__all__ = [
    "RECIPE_DEFAULTS",
    "SessionService",
    "build_session_components",
    "dispatch",
    "session_metrics",
]

#: Optional recipe keys and their defaults — the same values the
#: ``repro session init`` flags default to, so a minimal recipe
#: (``dataset`` + ``strategy``) behaves exactly like the minimal CLI
#: invocation.
RECIPE_DEFAULTS = {
    "scale": 0.2,
    "test_fraction": 0.3,
    "window": 3,
    "epochs": 5,
    "batch_size": 25,
    "rounds": 10,
    "initial_size": None,
    "seed": 7,
    "ranker": None,
    "training_mode": "cold",
}

#: Engine-shape settings every recipe flavour resolves to.
_SETTING_KEYS = ("batch_size", "rounds", "initial_size", "seed", "training_mode")

#: Integer flat-recipe fields and their minimum (``initial_size`` may
#: also be null, meaning "one batch").
_RECIPE_INTS = {
    "batch_size": 1,
    "rounds": 1,
    "epochs": 1,
    "window": 1,
    "initial_size": 1,
    "seed": 0,
}


def _normalized_recipe(recipe) -> dict:
    """Fill a recipe's optional keys with :data:`RECIPE_DEFAULTS`.

    The caller's key order is preserved (a fully specified recipe passes
    through untouched — the byte-identity contract with the session
    CLI); missing optional keys are appended with their defaults.
    Experiment-based recipes (``{"experiment": ..., "strategy": ...}``)
    carry their configuration inside the experiment document and pass
    through unchanged.
    """
    if not isinstance(recipe, dict):
        raise ServiceError("recipe must be a JSON object", status=400)
    if "experiment" in recipe:
        return dict(recipe)
    if "dataset" not in recipe or "strategy" not in recipe:
        raise ServiceError(
            "recipe needs 'dataset' and 'strategy' (or an 'experiment' document)",
            status=400,
        )
    normalized = dict(recipe)
    for key, value in RECIPE_DEFAULTS.items():
        normalized.setdefault(key, value)
    return normalized


def _check_recipe_fields(recipe: dict) -> None:
    """Type-check a normalized flat recipe before anything is built.

    Every bad field raises :class:`ConfigurationError` (HTTP 400) instead
    of escaping a builder as ``ValueError``/``TypeError``, and a float is
    never truncated into an integer field.  Range checks beyond these
    (``scale > 0``, ``0 < test_fraction < 1``) stay with the builders.
    """
    for key in ("dataset", "strategy"):
        if not isinstance(recipe[key], str):
            raise ConfigurationError(
                f"recipe {key!r} must be a string, got {recipe[key]!r}"
            )
    if recipe["ranker"] is not None and not isinstance(recipe["ranker"], str):
        raise ConfigurationError(
            f"recipe 'ranker' must be a path or null, got {recipe['ranker']!r}"
        )
    for key, minimum in _RECIPE_INTS.items():
        value = recipe[key]
        if key == "initial_size" and value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(
                f"recipe {key!r} must be an integer, got {value!r}"
            )
        if value < minimum:
            raise ConfigurationError(
                f"recipe {key!r} must be >= {minimum}, got {value}"
            )
    for key in ("scale", "test_fraction"):
        value = recipe[key]
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise ConfigurationError(
                f"recipe {key!r} must be a finite number, got {value!r}"
            )


def build_session_components(recipe: dict):
    """Build ``(train, test, model, strategy, settings)`` from a recipe.

    Two recipe flavours:

    * a **flat recipe** — the dict the session CLI has always stored
      (``dataset``, ``scale``, ``strategy``, ``window``, ...); built
      through the identical spec shims the CLI used, so a recipe stored
      before the service existed reconstructs the same components.
    * an **experiment recipe** — ``{"experiment": <repro.experiment
      document>, "strategy": <name>}``: the session is created straight
      from a declarative :class:`~repro.specs.ExperimentSpec`, choosing
      one of its strategies (``strategy`` may be omitted when the
      document defines exactly one).

    ``settings`` holds the engine-shape parameters (``batch_size``,
    ``rounds``, ``initial_size``, ``seed``, ``training_mode``).
    Construction is deterministic given the recipe: every rebuild
    yields identical components, which is what lets a restored engine
    continue byte-identically.
    """
    recipe = _normalized_recipe(recipe)
    if "experiment" in recipe:
        spec = ExperimentSpec.from_dict(recipe["experiment"])
        names = list(spec.strategies)
        chosen = recipe.get("strategy")
        if chosen is None:
            if len(names) != 1:
                raise ServiceError(
                    f"experiment document defines {len(names)} strategies "
                    f"({names}); pass 'strategy' to pick one",
                    status=400,
                )
            chosen = names[0]
        if chosen not in spec.strategies:
            raise ServiceError(
                f"unknown strategy {chosen!r}; the experiment defines {names}",
                status=400,
            )
        train, test, _task = spec.build_datasets()
        model = build_model(spec.resolved_model().to_dict())
        strategy = build_strategy(spec.strategies[chosen].to_dict())
        settings = {
            "batch_size": spec.config.batch_size,
            "rounds": spec.config.rounds,
            "initial_size": spec.config.initial_size,
            "seed": spec.config.seed,
            "training_mode": spec.config.training_mode,
            "track_flips": spec.config.track_flips,
        }
        return train, test, model, strategy, settings
    _check_recipe_fields(recipe)
    dataset, task = build_dataset(
        Spec(kind=recipe["dataset"], params={"scale": recipe["scale"], "seed": recipe["seed"]})
    )
    train, test = build_split(
        Spec(kind="fraction", params={"test_fraction": recipe["test_fraction"]}), dataset
    )
    model = build_model(default_model_spec(task, recipe["epochs"]).to_dict())
    strategy = build_strategy(
        parse_strategy_shorthand(
            recipe["strategy"], window=recipe["window"], ranker_path=recipe["ranker"]
        ).to_dict()
    )
    settings = {key: recipe[key] for key in _SETTING_KEYS}
    return train, test, model, strategy, settings


def session_metrics(engine, recipe=None) -> dict:
    """The default metric pipeline over one session's curve so far.

    The same :class:`~repro.eval.pipeline.MetricPipeline` offline sweep
    reports use, fed the session's partial learning curve, history, and
    selection order — so the service's numbers agree with an offline
    evaluation of the identical run by construction.  Inapplicable
    metrics (speed-up without a baseline strategy, contradiction rate
    without ``track_flips``) come back as ``None``; before the first
    evaluated round the block is empty.
    """
    records = [r for r in engine.records if r.metric is not None]
    if not records:
        return {}
    name = engine.strategy.name
    curve = LearningCurve(
        [r.labeled_count for r in records],
        [r.metric for r in records],
        label=name,
    )
    costs = None
    if isinstance(recipe, dict) and "experiment" in recipe:
        try:
            costs = ExperimentSpec.from_dict(
                recipe["experiment"]
            ).annotation_costs(engine.train_dataset)
        except ReproError:
            costs = None
    run = SimpleNamespace(
        history=engine.history,
        selection_order=engine.selection_order,
        curve=lambda label="": curve,
    )
    computed = build_pipeline().compute(
        MetricContext(curves={name: curve}, runs={name: [run]}, costs=costs)
    )
    # NaN is not valid JSON; the wire format for "not applicable" is null.
    return {
        label: {
            strategy: (None if math.isnan(value) else value)
            for strategy, value in per_strategy.items()
        }
        for label, per_strategy in computed.items()
    }


class _LiveSession:
    """One hosted session: engine + recipe + event feed + lock + version."""

    def __init__(self, recipe, engine, feed, store_name, version) -> None:
        self.recipe = recipe
        self.engine = engine
        self.feed = feed
        self.store_name = store_name
        self.version = version
        self.lock = threading.Lock()


class SessionService:
    """Multi-tenant session host over one or more named stores.

    ``stores`` maps backend names (``"json"``, ``"sqlite"``, ...) to
    :class:`~repro.service.store.SessionStore` instances; ``create``
    requests pick one by name (``default_store`` otherwise).  Session
    ids are unique across *all* stores — a session is addressed by id
    alone, its store is an implementation detail recorded at creation.

    Engines are cached in memory per process and re-hydrated from the
    store on demand, so the service survives restarts and several
    service processes can share one sqlite store: the per-write CAS
    rejects whichever process lost a race.
    """

    def __init__(self, stores: "dict[str, SessionStore]", default_store: "str | None" = None) -> None:
        if not stores:
            raise ConfigurationError("SessionService needs at least one store")
        self.stores = dict(stores)
        self.default_store = default_store if default_store is not None else next(iter(self.stores))
        if self.default_store not in self.stores:
            raise ConfigurationError(
                f"default store {self.default_store!r} is not one of {sorted(self.stores)}"
            )
        self._lock = threading.Lock()
        self._live: dict[str, _LiveSession] = {}
        self._counter = 0

    # -- store plumbing ----------------------------------------------------

    def _store_named(self, name) -> SessionStore:
        """The store registered under ``name`` (400 if unknown or not a string)."""
        if not isinstance(name, str) or name not in self.stores:
            raise ServiceError(
                f"unknown store {name!r}; available: {sorted(self.stores)}", status=400
            )
        return self.stores[name]

    def _find_store(self, session_id: str) -> "tuple[str, object] | None":
        """``(store_name, StoredSession)`` holding ``session_id``, or ``None``."""
        for name, store in self.stores.items():
            row = store.load(session_id)
            if row is not None:
                return name, row
        return None

    def _document(self, live: _LiveSession) -> dict:
        """The session's persistent document (the CLI's exact envelope)."""
        return {
            "format": SESSION_DIR_FORMAT,
            "version": SESSION_DIR_VERSION,
            "recipe": live.recipe,
            "session": live.engine.snapshot(),
        }

    def _save(self, session_id: str, live: _LiveSession) -> None:
        """CAS-write the session back; on conflict, drop the stale engine."""
        store = self._store_named(live.store_name)
        try:
            live.version = store.save(
                session_id, self._document(live), expected_version=live.version
            )
        except StoreConflictError:
            with self._lock:
                self._live.pop(session_id, None)
            raise

    def _session(self, session_id: str) -> _LiveSession:
        """The live session for ``session_id``, re-hydrating from its store.

        Unknown ids raise :class:`~repro.exceptions.ServiceError` 404,
        illegal ones 400.
        """
        _check_client_id(session_id)
        with self._lock:
            live = self._live.get(session_id)
            if live is not None:
                return live
        found = self._find_store(session_id)
        if found is None:
            raise ServiceError(f"unknown session {session_id!r}", status=404)
        store_name, row = found
        payload = validate_envelope(
            row.document,
            SESSION_DIR_FORMAT,
            SESSION_DIR_VERSION,
            SessionError,
            source=f"stored session {session_id!r}",
        )
        recipe = payload["recipe"]
        snapshot = drop_legacy_snapshot_options(payload["session"], SessionError)
        train, test, model, strategy, _settings = build_session_components(recipe)
        feed = SessionEventFeed()
        engine = SessionEngine.restore(
            snapshot, model, strategy, train, test, observers=[feed]
        )
        live = _LiveSession(recipe, engine, feed, store_name, row.version)
        with self._lock:
            # Another thread may have hydrated concurrently; keep the first.
            return self._live.setdefault(session_id, live)

    def _generated_id(self) -> str:
        """The next free ``session-N`` id across every store."""
        while True:
            with self._lock:
                self._counter += 1
                candidate = f"session-{self._counter}"
            if candidate not in self._live and self._find_store(candidate) is None:
                return candidate

    # -- operations --------------------------------------------------------

    def create(self, body: dict) -> dict:
        """Create a session from ``{"recipe": ..., "id"?, "store"?}``.

        Builds the components, runs the engine to its first proposal's
        doorstep (state ``PROPOSE``), and persists the initial document
        with a conflict-checked create — an existing id anywhere is
        refused with 409.
        """
        if not isinstance(body, dict):
            raise ServiceError("create body must be a JSON object", status=400)
        recipe = _normalized_recipe(body.get("recipe"))
        store_name = body.get("store", self.default_store)
        store = self._store_named(store_name)
        session_id = body.get("id")
        if session_id is None:
            session_id = self._generated_id()
        elif self._find_store(_check_client_id(session_id)) is not None:
            raise StoreConflictError(f"session {session_id!r} already exists")
        train, test, model, strategy, settings = build_session_components(recipe)
        feed = SessionEventFeed()
        engine = SessionEngine(
            model,
            strategy,
            train,
            test,
            batch_size=settings["batch_size"],
            rounds=settings["rounds"],
            initial_size=settings["initial_size"],
            seed_or_rng=settings["seed"],
            training_mode=settings["training_mode"],
            track_flips=settings.get("track_flips", False),
            observers=[feed],
        )
        live = _LiveSession(recipe, engine, feed, store_name, version=None)
        live.version = store.create(session_id, self._document(live))
        with self._lock:
            self._live[session_id] = live
        return {
            "id": session_id,
            "store": store_name,
            "state": engine.state.value,
            "round": engine.round_index,
            "n_train": len(train),
            "n_test": len(test),
            "recipe": recipe,
        }

    def _proposal_payload(self, session_id: str, live: _LiveSession) -> dict:
        """The pending batch rendered for an annotator (decoded text)."""
        engine = live.engine
        pending = engine.pending
        train = engine.train_dataset
        samples = [
            {
                "index": index,
                "text": " ".join(train.vocab.decode(train.sentences[index])),
            }
            for index in pending.tolist()
        ]
        return {
            "id": session_id,
            "state": engine.state.value,
            "finished": False,
            "round": engine.round_index,
            "indices": pending.tolist(),
            "samples": samples,
            "labels_template": {str(index): None for index in pending.tolist()},
            "recipe": live.recipe,
        }

    def _result_payload(self, session_id: str, live: _LiveSession) -> dict:
        """The finished session's audit trail as a JSON document."""
        # Imported lazily: experiments.checkpoint persists through
        # service.store, so a module-level import here would be circular.
        from ..experiments.checkpoint import result_to_dict

        result = live.engine.result()
        curve = result.curve()
        return {
            "id": session_id,
            "state": live.engine.state.value,
            "finished": True,
            "round": live.engine.round_index,
            "result": result_to_dict(result),
            "curve": [
                [int(count), float(value)]
                for count, value in zip(curve.counts, curve.values)
            ],
            "recipe": live.recipe,
        }

    def propose(self, session_id: str) -> dict:
        """Advance to the next batch awaiting labels (or the end).

        Persists the advanced state, then returns either the proposal
        (indices, decoded samples, labels template) or — once the
        session is finished — the full result payload.
        """
        live = self._session(session_id)
        with live.lock:
            pending = live.engine.propose()
            self._save(session_id, live)
            if pending is None:
                return self._result_payload(session_id, live)
            return self._proposal_payload(session_id, live)

    def ingest(self, session_id: str, body: dict) -> dict:
        """Label the pending batch and commit it.

        ``body`` is ``{"oracle": true}`` (answer from the dataset's own
        labels, the smoke-test mode) or ``{"indices": [...], "labels":
        [...]}``.  Only an explicit ``"oracle": true`` uses the dataset's
        labels: a body without a ``labels`` list is rejected, so a typo'd
        field can never commit ground truth by accident.  The commit
        happens before the reply, so the persisted document always lands
        on a round boundary; the (long) retrain runs on the next
        :meth:`propose`.
        """
        if not isinstance(body, dict):
            raise ServiceError("ingest body must be a JSON object", status=400)
        live = self._session(session_id)
        with live.lock:
            engine = live.engine
            if engine.state is not SessionState.AWAIT_LABELS:
                raise SessionError(
                    f"session is not awaiting labels (state={engine.state.value!r}); "
                    "propose first"
                )
            answer = _ingest_answer(body, engine.train_dataset)
            if answer is None:
                engine.ingest_labels(engine.pending)
            else:
                engine.ingest_labels(*answer)
            engine.step()  # commit the batch before the (long) retrain
            self._save(session_id, live)
            return {
                "id": session_id,
                "state": engine.state.value,
                "round": engine.round_index,
                "committed": True,
            }

    def status(self, session_id: str) -> dict:
        """The session's stored document plus live feed position."""
        live = self._session(session_id)
        with live.lock:
            snapshot = live.engine.snapshot()
            return {
                "id": session_id,
                "store": live.store_name,
                "state": snapshot["state"],
                "round": snapshot["round_index"],
                "recipe": live.recipe,
                "session": snapshot,
                "metrics": session_metrics(live.engine, live.recipe),
                "last_seq": live.feed.last_seq,
            }

    def result(self, session_id: str) -> dict:
        """The finished session's audit trail (409 until finished)."""
        live = self._session(session_id)
        with live.lock:
            return self._result_payload(session_id, live)

    def events(self, session_id: str, after: int = 0) -> dict:
        """Lifecycle events with ``seq`` greater than ``after``."""
        live = self._session(session_id)
        return {
            "id": session_id,
            "events": live.feed.since(after),
            "last_seq": live.feed.last_seq,
        }

    def delete(self, session_id: str) -> dict:
        """Remove the session from memory and its store (404 if unknown)."""
        found = self._find_store(_check_client_id(session_id))
        if found is None and session_id not in self._live:
            raise ServiceError(f"unknown session {session_id!r}", status=404)
        with self._lock:
            self._live.pop(session_id, None)
        if found is not None:
            self.stores[found[0]].delete(session_id)
        return {"id": session_id, "deleted": True}

    def list_sessions(self) -> dict:
        """Every stored session id, tagged with its store."""
        sessions = []
        for name in sorted(self.stores):
            for session_id in self.stores[name].list_ids():
                sessions.append({"id": session_id, "store": name})
        return {"sessions": sessions}

    def health(self) -> dict:
        """Liveness payload: store names and hosted-session count."""
        return {
            "status": "ok",
            "stores": sorted(self.stores),
            "default_store": self.default_store,
            "live_sessions": len(self._live),
        }


def _check_client_id(session_id) -> str:
    """``session_id`` if it is a legal store id; a 400 ``ServiceError`` if not.

    The stores' own check raises :class:`~repro.exceptions.StoreError`,
    which maps to HTTP 500 as a server-side fault; an id a client sent
    in a body or URL path is a client error.
    """
    try:
        return checked_session_id(session_id)
    except StoreError as error:
        raise ServiceError(str(error), status=400) from None


def _is_int64(value) -> bool:
    """Whether a decoded JSON value is an integer (not a bool) in int64 range."""
    return not isinstance(value, bool) and isinstance(value, int) and -(2**63) <= value < 2**63


def _ingest_answer(body: dict, dataset) -> "tuple[list, list] | None":
    """An ingest body's ``(indices, labels)``, or ``None`` for the oracle.

    Only ``"oracle": true`` answers from the dataset's own labels; any
    other body must carry an ``indices`` list of int64-range integers and
    a ``labels`` list: one class id per index for a text session, one
    list of tag ids per index for a sequence session (``dataset`` says
    which).  JSON floats, strings, nulls and booleans are rejected rather
    than coerced, so ``1.5`` never becomes sample (or class) 1.  Lengths
    and ranges are checked by :meth:`SessionEngine.ingest_labels`.
    """
    oracle = body.get("oracle", False)
    if not isinstance(oracle, bool):
        raise IngestError(f"'oracle' must be true or false, got {oracle!r}")
    if oracle:
        return None
    indices = body.get("indices")
    if not isinstance(indices, list):
        raise IngestError("ingest body needs 'indices' (a list) or 'oracle': true")
    for value in indices:
        if isinstance(value, bool) or not isinstance(value, int):
            raise IngestError(f"indices must be integers, got {value!r}")
        if not _is_int64(value):
            raise IngestError(f"index {value} is out of range")
    labels = body.get("labels")
    if not isinstance(labels, list):
        raise IngestError(
            "ingest body needs 'labels' (a list, one per index) unless "
            "'oracle' is true"
        )
    sequences = isinstance(dataset, SequenceDataset)
    for label in labels:
        if sequences:
            if not (isinstance(label, list) and all(_is_int64(tag) for tag in label)):
                raise IngestError(
                    f"sequence labels must be lists of integer tag ids, got {label!r}"
                )
        elif not _is_int64(label):
            raise IngestError(f"labels must be integer class ids, got {label!r}")
    return indices, labels


#: Exception class -> HTTP status, checked in order (subclasses first).
_ERROR_STATUS = (
    (StoreConflictError, 409),
    (IngestError, 400),
    (SessionError, 409),
    (SpecError, 400),
    (ConfigurationError, 400),
    (StoreError, 500),
)


def _error_response(error: ReproError) -> "tuple[int, dict]":
    """Map a domain error onto ``(status, payload)``.

    The payload carries ``error_type`` (the exception class name) so the
    client can re-raise the *same* domain exception the in-process path
    would have raised — transport must never change what callers catch.
    """
    if isinstance(error, ServiceError):
        status = error.status
    else:
        status = next(
            (code for cls, code in _ERROR_STATUS if isinstance(error, cls)), 400
        )
    return status, {"error": str(error), "error_type": type(error).__name__}


def _after_cursor(query: dict) -> int:
    """The events route's ``after`` query value as a non-negative int."""
    raw = query.get("after", 0)
    try:
        after = int(raw)
    except (TypeError, ValueError):
        after = -1
    if after < 0:
        raise ServiceError(
            f"'after' must be a non-negative integer, got {raw!r}", status=400
        )
    return after


def dispatch(
    service: SessionService,
    method: str,
    path: str,
    query: "dict | None" = None,
    body: "dict | None" = None,
) -> "tuple[int, dict]":
    """Route one request onto ``service``; returns ``(status, payload)``.

    The single routing table shared by the HTTP server and the
    in-process transport::

        GET    /healthz                    liveness
        GET    /sessions                   list sessions
        POST   /sessions                   create (201)
        GET    /sessions/{id}              status
        DELETE /sessions/{id}              delete
        POST   /sessions/{id}/propose      advance to the next proposal
        POST   /sessions/{id}/ingest       label + commit the pending batch
        GET    /sessions/{id}/result       finished audit trail
        GET    /sessions/{id}/events       feed entries with seq > ``after``

    Domain errors become ``(status, {"error", "error_type"})`` — see
    :func:`_error_response`; unknown paths 404, wrong methods 405.
    """
    query = query or {}
    parts = [part for part in path.split("/") if part]
    try:
        if parts == ["healthz"]:
            if method != "GET":
                raise ServiceError(f"{method} not allowed on /healthz", status=405)
            return 200, service.health()
        if not parts or parts[0] != "sessions" or len(parts) > 3:
            raise ServiceError(f"no such endpoint: {path}", status=404)
        if len(parts) == 1:
            if method == "GET":
                return 200, service.list_sessions()
            if method == "POST":
                return 201, service.create(body or {})
            raise ServiceError(f"{method} not allowed on /sessions", status=405)
        session_id = parts[1]
        if len(parts) == 2:
            if method == "GET":
                return 200, service.status(session_id)
            if method == "DELETE":
                return 200, service.delete(session_id)
            raise ServiceError(
                f"{method} not allowed on /sessions/{session_id}", status=405
            )
        action = parts[2]
        handlers = {
            ("POST", "propose"): partial(service.propose, session_id),
            ("POST", "ingest"): partial(service.ingest, session_id, body or {}),
            ("GET", "result"): partial(service.result, session_id),
            ("GET", "events"): lambda: service.events(
                session_id, after=_after_cursor(query)
            ),
        }
        handler = handlers.get((method, action))
        if handler is None:
            if any(name == action for _method, name in handlers):
                raise ServiceError(
                    f"{method} not allowed on /sessions/{session_id}/{action}",
                    status=405,
                )
            raise ServiceError(f"no such endpoint: {path}", status=404)
        return 200, handler()
    except ReproError as error:
        return _error_response(error)
