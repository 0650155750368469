"""End-to-end tests over a real HTTP server.

A live :class:`ThreadingHTTPServer` hosts the service; many sessions
with different seeds and mixed store backends run to completion from
concurrent client threads, and every one must reproduce its serial
in-process reference byte-for-byte.  Transport and tenancy must be
invisible in the results.
"""

import http.client
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import ServiceError, SessionError, StoreConflictError
from repro.service import (
    JsonSessionStore,
    MemorySessionStore,
    SessionClient,
    SessionService,
    SqliteSessionStore,
    make_server,
)
from repro.service.server import MAX_BODY_BYTES, SessionRequestHandler

from .test_app import RECIPE, drive, serial_reference


@pytest.fixture
def http_client(tmp_path):
    """A client talking HTTP to a live server with json + sqlite stores."""
    service = SessionService(
        {
            "json": JsonSessionStore(tmp_path / "sessions"),
            "sqlite": SqliteSessionStore(tmp_path / "sessions.db"),
        }
    )
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield SessionClient.http(f"http://127.0.0.1:{server.server_address[1]}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestHttpTransport:
    def test_health_over_http(self, http_client):
        payload = http_client.health()
        assert payload["status"] == "ok"
        assert payload["stores"] == ["json", "sqlite"]

    def test_single_session_round_trip(self, http_client):
        created = http_client.create(RECIPE, session_id="s1", store="sqlite")
        assert created["store"] == "sqlite"
        finished = drive(http_client, "s1")
        assert json.dumps(finished["result"]) == serial_reference(RECIPE)
        result = http_client.result("s1")
        assert result["result"] == finished["result"]

    def test_domain_errors_cross_the_wire(self, http_client):
        with pytest.raises(ServiceError, match="unknown session") as caught:
            http_client.status("nope")
        assert caught.value.status == 404
        http_client.create(RECIPE, session_id="s1")
        with pytest.raises(StoreConflictError, match="already exists"):
            http_client.create(RECIPE, session_id="s1")
        with pytest.raises(SessionError, match="not awaiting labels"):
            http_client.ingest("s1", oracle=True)

    def test_events_poll_over_http(self, http_client):
        http_client.create(RECIPE, session_id="s1")
        http_client.propose("s1")
        feed = http_client.events("s1")
        seqs = [event["seq"] for event in feed["events"]]
        assert seqs and seqs == list(range(1, len(seqs) + 1))
        assert http_client.events("s1", after=feed["last_seq"])["events"] == []

    def test_unreachable_server_is_a_service_error(self):
        client = SessionClient.http("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach session server"):
            client.health()

    def test_concurrent_mixed_store_sessions_match_serial_runs(self, http_client):
        recipes = [dict(RECIPE, seed=seed) for seed in range(8)]
        stores = ["json" if index % 2 == 0 else "sqlite" for index in range(8)]

        def run_one(index):
            session_id = f"con-{index}"
            http_client.create(
                recipes[index], session_id=session_id, store=stores[index]
            )
            return json.dumps(drive(http_client, session_id)["result"])

        with ThreadPoolExecutor(max_workers=8) as pool:
            served = list(pool.map(run_one, range(8)))
        references = [serial_reference(recipe) for recipe in recipes]
        assert served == references
        # Different seeds genuinely exercise different trajectories.
        assert len(set(references)) > 1


@pytest.fixture
def live_server():
    """A served in-memory service; yields the bound server."""
    server = make_server(SessionService({"memory": MemorySessionStore()}))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class NoDelayRecordingHandler(SessionRequestHandler):
    """Records each accepted socket's ``TCP_NODELAY`` option after setup."""

    recorded: "list[int]" = []

    def setup(self) -> None:
        super().setup()
        self.recorded.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )


def raw_exchange(server, request: bytes, timeout: float = 10.0):
    """Send raw request bytes; return ``(response, payload, closed)``.

    ``closed`` says whether the server hung up after its reply.  Every
    socket operation is bounded by ``timeout``, so a handler stuck
    reading a body that never comes fails the test instead of hanging.
    """
    port = server.server_address[1]
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read())
        try:
            closed = sock.recv(1) == b""
        except ConnectionResetError:
            closed = True
    return response, payload, closed


def post_head(content_length: str) -> bytes:
    """A POST /sessions head announcing ``content_length``, with no body."""
    return (
        "POST /sessions HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        "\r\n"
    ).encode("ascii")


class TestHttpBoundary:
    def test_accepted_sockets_disable_nagle(self, live_server):
        NoDelayRecordingHandler.recorded = []
        live_server.RequestHandlerClass = NoDelayRecordingHandler
        port = live_server.server_address[1]
        client = SessionClient.http(f"http://127.0.0.1:{port}")
        assert client.health()["status"] == "ok"
        assert NoDelayRecordingHandler.recorded
        assert all(value != 0 for value in NoDelayRecordingHandler.recorded)

    @pytest.mark.parametrize("length", ["-1", "-5", "abc", "1.5", "0x10", "1_0"])
    def test_malformed_content_length_is_400(self, live_server, length):
        response, payload, closed = raw_exchange(live_server, post_head(length))
        assert response.status == 400
        assert payload["error_type"] == "ServiceError"
        assert "Content-Length" in payload["error"]
        assert response.getheader("Connection") == "close"
        assert closed

    def test_oversized_body_is_413_without_reading_it(self, live_server):
        response, payload, closed = raw_exchange(
            live_server, post_head(str(MAX_BODY_BYTES + 1))
        )
        assert response.status == 413
        assert payload["error_type"] == "ServiceError"
        assert response.getheader("Connection") == "close"
        assert closed

    def test_body_at_the_cap_is_read(self, live_server):
        prefix, suffix = b'{"pad": "', b'"}'
        body = prefix + b"x" * (MAX_BODY_BYTES - len(prefix) - len(suffix)) + suffix
        assert len(body) == MAX_BODY_BYTES
        head = post_head(str(len(body)))
        head = head.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
        response, payload, _closed = raw_exchange(live_server, head + body)
        assert response.status == 400
        assert "recipe must be a JSON object" in payload["error"]

    def test_keep_alive_survives_a_rejected_json_body(self, live_server):
        port = live_server.server_address[1]
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            connection.request("POST", "/sessions", body=b"{not json")
            first = connection.getresponse()
            assert first.status == 400
            first.read()
            connection.request("GET", "/healthz")
            second = connection.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "ok"
        finally:
            connection.close()
