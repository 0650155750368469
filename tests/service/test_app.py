"""Tests for the transport-agnostic session service and its dispatcher.

The central claim under test: a session driven through the service —
create, propose, ingest, result — produces an :class:`ALResult` whose
JSON serialisation is byte-identical to a plain in-process
:class:`SessionEngine` run of the same recipe.  The service adds
multi-tenancy, persistence, and events, never arithmetic.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.session import SessionEngine, run_to_completion
from repro.exceptions import (
    IngestError,
    ServiceError,
    SessionError,
    StoreConflictError,
)
from repro.data.text import MAX_SCALE
from repro.experiments import ExperimentConfig
from repro.experiments.checkpoint import result_to_dict
from repro.service import (
    RECIPE_DEFAULTS,
    MemorySessionStore,
    SessionClient,
    SessionService,
    SqliteSessionStore,
    build_session_components,
    dispatch,
)
from repro.specs import ExperimentSpec, Spec

RECIPE = {
    "dataset": "mr",
    "scale": 0.05,
    "strategy": "entropy",
    "rounds": 2,
    "batch_size": 10,
    "epochs": 3,
    "seed": 3,
}

#: A sequence-labeling (NER) session: labels are one tag-id list per sample.
SEQUENCE_RECIPE = dict(RECIPE, dataset="conll-en", batch_size=5)


def serial_reference(recipe) -> str:
    """The JSON audit trail of a plain engine run — the ground truth."""
    train, test, model, strategy, settings = build_session_components(recipe)
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
    )
    return json.dumps(result_to_dict(run_to_completion(engine)))


def drive(client, session_id) -> dict:
    """Run one hosted session to completion with the auto-oracle."""
    while True:
        payload = client.propose(session_id)
        if payload.get("finished"):
            return payload
        client.ingest(session_id, oracle=True)


@pytest.fixture
def service():
    """A single-tenant in-memory service."""
    return SessionService({"memory": MemorySessionStore()})


@pytest.fixture
def client(service):
    """The in-process client over the ``service`` fixture."""
    return SessionClient.in_process(service)


class TestSessionLifecycle:
    def test_create_normalizes_recipe_and_reports_shape(self, client):
        created = client.create(RECIPE, session_id="s1")
        assert created["id"] == "s1"
        assert created["store"] == "memory"
        assert created["round"] == 0
        # Caller keys keep their order; defaults are appended after.
        assert list(created["recipe"])[: len(RECIPE)] == list(RECIPE)
        assert created["recipe"]["window"] == 3
        assert created["n_train"] > 0 and created["n_test"] > 0

    def test_generated_ids_are_unique(self, client):
        first = client.create(RECIPE)["id"]
        second = client.create(RECIPE)["id"]
        assert first != second

    def test_duplicate_id_conflicts(self, client):
        client.create(RECIPE, session_id="s1")
        with pytest.raises(StoreConflictError, match="already exists"):
            client.create(RECIPE, session_id="s1")

    def test_result_matches_serial_run_byte_for_byte(self, client):
        client.create(RECIPE, session_id="s1")
        finished = drive(client, "s1")
        assert json.dumps(finished["result"]) == serial_reference(RECIPE)
        assert finished["curve"] == [[10, 0.7125], [20, 0.7875], [30, 0.6625]]

    def test_manual_labels_flow(self, client):
        client.create(RECIPE, session_id="s1")
        proposal = client.propose("s1")
        assert proposal["finished"] is False
        assert len(proposal["indices"]) == RECIPE["batch_size"]
        assert [s["index"] for s in proposal["samples"]] == proposal["indices"]
        assert all(s["text"] for s in proposal["samples"])
        assert set(proposal["labels_template"]) == {
            str(i) for i in proposal["indices"]
        }
        committed = client.ingest(
            "s1", indices=proposal["indices"], labels=[0, 1] * 5
        )
        assert committed["committed"] is True
        assert committed["round"] == 0  # the 0-based round just committed

    def test_status_and_listing(self, client):
        client.create(RECIPE, session_id="s1")
        status = client.status("s1")
        assert status["state"] == "propose"
        assert status["session"]["format"] == "repro.al_session"
        assert client.list_sessions() == [{"id": "s1", "store": "memory"}]
        client.delete("s1")
        assert client.list_sessions() == []

    def test_result_before_finish_is_a_session_error(self, client):
        client.create(RECIPE, session_id="s1")
        with pytest.raises(SessionError):
            client.result("s1")

    def test_ingest_before_propose_is_a_session_error(self, client):
        client.create(RECIPE, session_id="s1")
        with pytest.raises(SessionError, match="not awaiting labels"):
            client.ingest("s1", oracle=True)

    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["stores"] == ["memory"]


class TestExperimentRecipes:
    def test_create_from_experiment_document(self, client):
        spec = ExperimentSpec(
            dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 3}),
            strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
            config=ExperimentConfig(batch_size=10, rounds=2, repeats=1, seed=3),
        )
        recipe = {"experiment": spec.to_dict(), "strategy": "entropy"}
        created = client.create(recipe, session_id="exp1")
        assert created["recipe"] == recipe  # experiment recipes pass through
        finished = drive(client, "exp1")
        assert json.dumps(finished["result"]) == serial_reference(recipe)

    def test_ambiguous_strategy_rejected(self, client):
        spec = ExperimentSpec(
            dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 3}),
            strategies={"random": Spec(kind="random"), "entropy": Spec(kind="entropy")},
            config=ExperimentConfig(batch_size=10, rounds=2, repeats=1, seed=3),
        )
        with pytest.raises(ServiceError, match="pass 'strategy'"):
            client.create({"experiment": spec.to_dict()})

    def test_incomplete_flat_recipe_rejected(self, client):
        with pytest.raises(ServiceError, match="dataset"):
            client.create({"strategy": "entropy"})


class TestEvents:
    def test_feed_is_sequential_and_filterable(self, client):
        client.create(RECIPE, session_id="s1")
        drive(client, "s1")
        feed = client.events("s1")
        seqs = [event["seq"] for event in feed["events"]]
        assert seqs == list(range(1, len(seqs) + 1))
        assert feed["last_seq"] == seqs[-1]
        kinds = [event["event"] for event in feed["events"]]
        assert "batch_selected" in kinds
        assert "round_committed" in kinds
        assert kinds[-1] == "session_finished"
        # Incremental polling: `after` returns only newer entries.
        tail = client.events("s1", after=seqs[-2])
        assert [event["seq"] for event in tail["events"]] == [seqs[-1]]
        assert client.events("s1", after=seqs[-1])["events"] == []


class TestPersistence:
    def test_restart_continues_byte_identically(self, tmp_path):
        store = SqliteSessionStore(tmp_path / "sessions.db")
        first = SessionClient.in_process(SessionService({"sqlite": store}))
        first.create(RECIPE, session_id="s1")
        proposal = first.propose("s1")
        first.ingest("s1", oracle=True)
        assert proposal["round"] == 0
        # A fresh service over the same store re-hydrates the engine from
        # its persisted snapshot and finishes with the exact serial result.
        second = SessionClient.in_process(SessionService({"sqlite": store}))
        finished = drive(second, "s1")
        assert json.dumps(finished["result"]) == serial_reference(RECIPE)

    def test_concurrent_services_cas_protects_lost_updates(self, tmp_path):
        store_path = tmp_path / "sessions.db"
        service_a = SessionService({"sqlite": SqliteSessionStore(store_path)})
        service_b = SessionService({"sqlite": SqliteSessionStore(store_path)})
        client_a = SessionClient.in_process(service_a)
        client_b = SessionClient.in_process(service_b)
        client_a.create(RECIPE, session_id="s1")
        client_a.propose("s1")
        # B hydrates the same session and advances it; A's next write now
        # holds a stale version and must be refused, not silently clobber.
        client_b.propose("s1")
        client_b.ingest("s1", oracle=True)
        with pytest.raises(StoreConflictError, match="concurrent update"):
            client_a.ingest("s1", oracle=True)
        # A's stale engine was evicted; re-hydrating reads B's committed
        # round and the session finishes with the exact serial result.
        finished = drive(client_a, "s1")
        assert json.dumps(finished["result"]) == serial_reference(RECIPE)


class TestDispatch:
    def test_unknown_session_is_404(self, service):
        status, payload = dispatch(service, "GET", "/sessions/nope")
        assert status == 404
        assert payload["error_type"] == "ServiceError"

    def test_unknown_path_is_404(self, service):
        assert dispatch(service, "GET", "/frobnicate")[0] == 404
        assert dispatch(service, "GET", "/sessions/s1/unknown")[0] == 404

    def test_wrong_method_is_405(self, service):
        assert dispatch(service, "POST", "/healthz")[0] == 405
        assert dispatch(service, "PUT", "/sessions")[0] == 405
        assert dispatch(service, "GET", "/sessions/s1/propose")[0] == 405

    def test_create_is_201_and_duplicate_409(self, service):
        status, payload = dispatch(
            service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"}
        )
        assert status == 201 and payload["id"] == "s1"
        status, payload = dispatch(
            service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"}
        )
        assert status == 409
        assert payload["error_type"] == "StoreConflictError"

    def test_bad_recipe_is_400(self, service):
        status, payload = dispatch(
            service, "POST", "/sessions", body={"recipe": {"dataset": "mr"}}
        )
        assert status == 400
        assert payload["error_type"] == "ServiceError"

    def test_bad_ingest_body_is_400(self, service):
        dispatch(service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"})
        dispatch(service, "POST", "/sessions/s1/propose")
        status, payload = dispatch(service, "POST", "/sessions/s1/ingest", body={})
        assert status == 400
        assert payload["error_type"] == "IngestError"

    def _assert_ingest_rejected(self, service, make_body, recipe=RECIPE):
        """``make_body(pending, labels)`` is a 400 IngestError that commits
        nothing; ``labels`` is a well-formed answer for ``pending``."""
        dispatch(service, "POST", "/sessions", body={"recipe": recipe, "id": "s1"})
        _, proposal = dispatch(service, "POST", "/sessions/s1/propose")
        pending = proposal["indices"]
        if recipe is SEQUENCE_RECIPE:
            labels = [[0] * len(sample["text"].split()) for sample in proposal["samples"]]
        else:
            labels = [0] * len(pending)
        status, payload = dispatch(
            service, "POST", "/sessions/s1/ingest", body=make_body(pending, labels)
        )
        assert status == 400
        assert payload["error_type"] == "IngestError"
        _, after = dispatch(service, "GET", "/sessions/s1")
        assert after["state"] == "await_labels"
        assert after["session"]["pending"] == pending
        # The session still accepts a well-formed answer afterwards.
        status, _ = dispatch(
            service, "POST", "/sessions/s1/ingest",
            body={"indices": pending, "labels": labels},
        )
        assert status == 200

    @pytest.mark.parametrize(
        "make_body",
        [
            lambda pending, labels: {"indices": pending},
            lambda pending, labels: {"indices": pending, "labels": None},
            lambda pending, labels: {"indices": pending, "label": labels},
            lambda pending, labels: {"oracle": "true"},
            lambda pending, labels: {"oracle": 1, "indices": pending},
        ],
        ids=["no-labels", "null-labels", "typo-labels", "string-oracle", "int-oracle"],
    )
    def test_ground_truth_needs_explicit_oracle(self, service, make_body):
        self._assert_ingest_rejected(service, make_body)

    @pytest.mark.parametrize(
        "bad", ["a", 1e20, None, 1.5, True, 2**64],
        ids=["str", "1e20", "null", "1.5", "bool", "2**64"],
    )
    def test_non_integer_index_is_400(self, service, bad):
        self._assert_ingest_rejected(
            service,
            lambda pending, labels: {"indices": [bad] + pending[1:], "labels": labels},
        )

    @pytest.mark.parametrize(
        "bad", ["1", 1.5, 1.0, None, True, [0], 2**64],
        ids=["str", "1.5", "1.0", "null", "bool", "list", "2**64"],
    )
    def test_non_integer_text_label_is_400(self, service, bad):
        self._assert_ingest_rejected(
            service,
            lambda pending, labels: {"indices": pending, "labels": [bad] + labels[1:]},
        )

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda tags: 0,
            lambda tags: "O",
            lambda tags: None,
            lambda tags: [1.5] + tags[1:],
            lambda tags: ["0"] + tags[1:],
            lambda tags: [None] + tags[1:],
            lambda tags: [True] + tags[1:],
            lambda tags: [2**64] + tags[1:],
            lambda tags: tags[1:],
            lambda tags: tags + [0],
        ],
        ids=["int", "str", "null", "float-tag", "str-tag", "null-tag", "bool-tag",
             "2**64-tag", "too-short", "too-long"],
    )
    def test_malformed_sequence_label_is_400(self, service, corrupt):
        self._assert_ingest_rejected(
            service,
            lambda pending, labels: {
                "indices": pending, "labels": [corrupt(labels[0])] + labels[1:]
            },
            recipe=SEQUENCE_RECIPE,
        )

    def test_client_ingest_without_labels_is_rejected(self, client):
        client.create(RECIPE, session_id="s1")
        pending = client.propose("s1")["indices"]
        with pytest.raises(IngestError, match="labels"):
            client.ingest("s1", indices=pending)
        assert client.status("s1")["state"] == "await_labels"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("scale", "big"),
            ("scale", None),
            ("scale", float("nan")),
            pytest.param("scale", 10**400, id="scale-10**400"),
            ("rounds", "x"),
            ("rounds", 1.5),
            ("rounds", True),
            ("batch_size", None),
            ("batch_size", 2.5),
            ("batch_size", 0),
            ("epochs", "3"),
            ("epochs", 1.5),
            ("initial_size", "x"),
            ("initial_size", 1.5),
            ("initial_size", 0),
            ("seed", "x"),
            ("seed", None),
            ("seed", -1),
            ("seed", 1.5),
            ("window", "x"),
            ("test_fraction", "x"),
            ("dataset", None),
            ("strategy", 1),
            ("ranker", 1),
        ],
    )
    def test_bad_recipe_field_is_400(self, service, field, value):
        recipe = dict(RECIPE, **{field: value})
        status, payload = dispatch(service, "POST", "/sessions", body={"recipe": recipe})
        assert status == 400
        assert payload["error_type"] == "ConfigurationError"
        assert dispatch(service, "GET", "/sessions")[1]["sessions"] == []

    @pytest.mark.parametrize("scale", [MAX_SCALE * 2, 1e300])
    def test_over_cap_scale_is_400(self, service, scale):
        """A finite but huge scale is refused before any corpus is built."""
        recipe = dict(RECIPE, scale=scale)
        status, payload = dispatch(service, "POST", "/sessions", body={"recipe": recipe})
        assert status == 400
        assert payload["error_type"] == "ConfigurationError"
        assert "scale" in payload["error"]
        assert dispatch(service, "GET", "/sessions")[1]["sessions"] == []

    @pytest.mark.parametrize("after", ["x", "1.5", "-1"])
    def test_bad_events_cursor_is_400(self, service, after):
        dispatch(service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"})
        status, payload = dispatch(
            service, "GET", "/sessions/s1/events", query={"after": after}
        )
        assert status == 400
        assert payload["error_type"] == "ServiceError"

    def test_events_cursor_filters(self, service):
        dispatch(service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"})
        dispatch(service, "POST", "/sessions/s1/propose")
        status, feed = dispatch(service, "GET", "/sessions/s1/events")
        assert status == 200 and feed["events"]
        status, tail = dispatch(
            service, "GET", "/sessions/s1/events",
            query={"after": str(feed["last_seq"])},
        )
        assert status == 200 and tail["events"] == []

    def test_propose_ignores_the_events_cursor(self, service):
        dispatch(service, "POST", "/sessions", body={"recipe": RECIPE, "id": "s1"})
        status, payload = dispatch(
            service, "POST", "/sessions/s1/propose", query={"after": "x"}
        )
        assert status == 200
        assert payload["id"] == "s1"

    @pytest.mark.parametrize("store", [[], {}, ["memory"], 1, None, True])
    def test_non_string_store_is_400(self, service, store):
        status, payload = dispatch(
            service, "POST", "/sessions", body={"recipe": RECIPE, "store": store}
        )
        assert status == 400
        assert payload["error_type"] == "ServiceError"
        assert "unknown store" in payload["error"]

    @pytest.mark.parametrize(
        "bad",
        [7, 1.5, True, [], {}, "", "a/b", "../x", "-x", pytest.param("x" * 101, id="long")],
    )
    def test_illegal_body_id_is_400(self, service, bad):
        status, payload = dispatch(
            service, "POST", "/sessions", body={"recipe": RECIPE, "id": bad}
        )
        assert status == 400
        assert payload["error_type"] == "ServiceError"
        assert "illegal session id" in payload["error"]
        assert dispatch(service, "GET", "/sessions")[1]["sessions"] == []

    @pytest.mark.parametrize(
        ("method", "suffix"),
        [
            ("GET", ""),
            ("DELETE", ""),
            ("POST", "/propose"),
            ("POST", "/ingest"),
            ("GET", "/result"),
            ("GET", "/events"),
        ],
    )
    @pytest.mark.parametrize(
        "bad", ["bad$id", "-x", "%2E%2E", pytest.param("x" * 101, id="long")]
    )
    def test_illegal_path_id_is_400(self, service, method, suffix, bad):
        status, payload = dispatch(service, method, f"/sessions/{bad}{suffix}")
        assert status == 400
        assert payload["error_type"] == "ServiceError"
        assert "illegal session id" in payload["error"]

    def test_client_re_raises_domain_exceptions(self, client):
        client.create(RECIPE, session_id="s1")
        client.propose("s1")
        with pytest.raises(IngestError, match="indices"):
            client.ingest("s1")


#: Any value ``json.loads`` can return (it accepts NaN and Infinity too).
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=10,
)

#: Recipes that get past the shape check, so their fields are exercised.
RECIPES = JSON_VALUES | st.fixed_dictionaries(
    {"dataset": JSON_VALUES, "strategy": JSON_VALUES},
    optional={key: JSON_VALUES for key in (*RECIPE_DEFAULTS, "experiment")},
)

CREATE_BODIES = JSON_VALUES | st.fixed_dictionaries(
    {},
    optional={
        "recipe": RECIPES,
        "store": JSON_VALUES | st.just("memory"),
        "id": JSON_VALUES | st.from_regex(r"[A-Za-z0-9][A-Za-z0-9._-]{0,8}", fullmatch=True),
    },
)


@settings(max_examples=200, deadline=None)
@given(body=CREATE_BODIES)
def test_create_never_fails_server_side(body):
    """Any JSON create body gets a JSON reply with a client-error status.

    Nothing a client sends may escape as an uncaught exception (which
    the HTTP server turns into a dropped connection) or a 5xx.
    """
    service = SessionService({"memory": MemorySessionStore()})
    status, payload = dispatch(service, "POST", "/sessions", body=body)
    assert isinstance(status, int) and status < 500, (status, payload)
    assert isinstance(payload, dict)
    json.dumps(payload)
    if status >= 400:
        assert set(payload) == {"error", "error_type"}


class TestStatusMetrics:
    """The ``metrics`` block of GET /sessions/{id}/status must agree
    with an offline metric-pipeline evaluation of the identical run."""

    def _experiment_recipe(self, track_flips=True):
        spec = ExperimentSpec(
            dataset=Spec(kind="mr", params={"scale": 0.05, "seed": 3}),
            strategies={"entropy": Spec(kind="entropy")},
            config=ExperimentConfig(
                batch_size=10, rounds=2, repeats=1, seed=3,
                track_flips=track_flips,
            ),
        )
        return {"experiment": spec.to_dict(), "strategy": "entropy"}

    def _offline_metrics(self, recipe):
        """The offline reference: a plain engine run fed straight through
        the eval pipeline, exactly as a sweep report would compute it."""
        import math

        from repro.eval.pipeline import MetricContext
        from repro.specs import build_pipeline

        train, test, model, strategy, settings = build_session_components(recipe)
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
        )
        result = run_to_completion(engine)
        name = strategy.name
        computed = build_pipeline().compute(
            MetricContext(curves={name: result.curve(name)}, runs={name: [result]})
        )
        return {
            label: {
                s: (None if math.isnan(v) else v) for s, v in per.items()
            }
            for label, per in computed.items()
        }

    def test_status_metrics_match_offline_pipeline(self, client):
        recipe = self._experiment_recipe()
        client.create(recipe, session_id="m1")
        drive(client, "m1")
        payload = client.status("m1")
        assert payload["metrics"] == self._offline_metrics(recipe)

    def test_contradiction_applicable_only_with_tracking(self, client):
        recipe = self._experiment_recipe(track_flips=True)
        client.create(recipe, session_id="m2")
        drive(client, "m2")
        assert client.status("m2")["metrics"]["contradiction"]["Entropy"] is not None

        untracked = self._experiment_recipe(track_flips=False)
        client.create(untracked, session_id="m3")
        drive(client, "m3")
        assert client.status("m3")["metrics"]["contradiction"]["Entropy"] is None

    def test_metrics_empty_before_first_evaluation(self, client):
        client.create(self._experiment_recipe(), session_id="m4")
        assert client.status("m4")["metrics"] == {}

    def test_speedup_without_random_baseline_is_null(self, client):
        recipe = self._experiment_recipe()
        client.create(recipe, session_id="m5")
        drive(client, "m5")
        assert client.status("m5")["metrics"]["speedup"]["Entropy"] is None

    def test_metrics_survive_json_serialization(self, client):
        recipe = self._experiment_recipe()
        client.create(recipe, session_id="m6")
        drive(client, "m6")
        payload = client.status("m6")
        assert json.loads(json.dumps(payload["metrics"])) == payload["metrics"]
