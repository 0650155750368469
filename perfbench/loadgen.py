"""Load generator for the session server: closed-loop annotators and an
open-loop arrival schedule, over keep-alive HTTP connections.

A session is create → (propose → ingest with the oracle)* → the final
propose that returns the audit trail.  Each request is logged as
``(op, due, sent, done, status)`` on ``time.perf_counter``; closed-loop
requests are due when sent, open-loop ones when their session's
arrival (or previous reply) made them due.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 60.0


class Connection:
    """One keep-alive HTTP/1.1 connection; reopened after a failed request."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._http = None

    def request(self, method: str, path: str, body=None) -> "tuple[int | None, dict | None]":
        """``(status, payload)``; ``(None, None)`` on a transport error or timeout."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        if self._http is None:
            self._http = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
            )
        try:
            self._http.request(method, path, body=data, headers=headers)
            response = self._http.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            return None, None

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None


def succeeded(status: "int | None") -> bool:
    """A request succeeded when it got a 2xx reply (``None`` is a timeout)."""
    return status is not None and 200 <= status < 300


@dataclass
class SessionRun:
    """What one driven session produced."""

    session_id: str
    store: str
    recipe: dict
    requests: list = field(default_factory=list)  # (op, due, sent, done, status)
    result_json: "str | None" = None
    curve: "list | None" = None

    @property
    def ok(self) -> bool:
        return self.result_json is not None and all(succeeded(r[4]) for r in self.requests)


def drive_session(connection: Connection, run: SessionRun, due: float) -> SessionRun:
    """Run one session to its end; the first request is due at ``due``."""

    def call(op, method, path, body=None):
        nonlocal due
        sent = time.perf_counter()
        status, payload = connection.request(method, path, body)
        done = time.perf_counter()
        run.requests.append((op, due, sent, done, status))
        due = done  # the annotator answers at once: the next request is due now
        return payload if succeeded(status) else None

    created = call("create", "POST", "/sessions",
                   {"recipe": run.recipe, "id": run.session_id, "store": run.store})
    if created is None:
        return run
    while True:
        proposal = call("propose", "POST", f"/sessions/{run.session_id}/propose")
        if proposal is None:
            return run
        if proposal.get("finished"):
            run.result_json = json.dumps(proposal["result"])
            run.curve = proposal["curve"]
            return run
        if call("ingest", "POST", f"/sessions/{run.session_id}/ingest", {"oracle": True}) is None:
            return run


def closed_loop(port: int, runs: "list[SessionRun]", annotators: int = 2) -> float:
    """Each annotator drives its share of ``runs`` back to back; returns wall seconds."""

    def annotator(index: int) -> None:
        connection = Connection(port)
        try:
            for run in runs[index::annotators]:
                drive_session(connection, run, time.perf_counter())
        finally:
            connection.close()

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=annotators) as pool:
        for future in [pool.submit(annotator, i) for i in range(annotators)]:
            future.result()
    return time.perf_counter() - start


def arrival_schedule(seed: int, count: int, rate: float) -> "list[float]":
    """Seeded Poisson arrival offsets (seconds from the phase start)."""
    rng = random.Random(seed)
    offsets, clock = [], 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        offsets.append(clock)
    return offsets


def open_loop(port: int, runs: "list[SessionRun]", offsets: "list[float]",
              max_active: int = 8) -> None:
    """Start each session at its scheduled offset, whatever the backlog.

    Sessions run on up to ``max_active`` client threads, each with its
    own connection; a session that waits for a free thread is late, and
    that lateness is both generator lag and part of its latency.
    """
    local = threading.local()
    connections: list[Connection] = []
    guard = threading.Lock()

    def start_session(run: SessionRun, due: float) -> None:
        connection = getattr(local, "connection", None)
        if connection is None:
            connection = local.connection = Connection(port)
            with guard:
                connections.append(connection)
        drive_session(connection, run, due)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=max_active) as pool:
        futures = []
        for run, offset in zip(runs, offsets):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(start_session, run, due))
        for future in futures:
            future.result()
    for connection in connections:
        connection.close()
