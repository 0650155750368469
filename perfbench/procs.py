"""Launching the program's processes: wall time, peak RSS, clean stops."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Checkout root (``perfbench/`` lives directly under it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_MAIN = Path(__file__).resolve().parent / "traced_main.py"
#: Seconds before a hung program process is killed (a run must end in 180 s).
PROGRAM_TIMEOUT = 150.0


def program_env() -> dict:
    """The environment the program runs in: the caller's, plus ``src`` on the path.

    BLAS/OpenMP thread variables are passed through exactly as found;
    pinning them would hide the pool's oversubscription.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def repro_command(args: "list[str]", trace_dir: "Path | None" = None) -> "list[str]":
    """``python3 -m repro ARGS``, or the traced bootstrap when ``trace_dir`` is set."""
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(TRACED_MAIN), str(trace_dir), "--", *args]


@dataclass
class Finished:
    """One finished process: exit code, launch-to-exit wall, peak RSS, output."""

    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def run_program(
    args: "list[str]", work: Path, tag: str, trace_dir: "Path | None" = None
) -> Finished:
    """Run one CLI command to completion from the checkout root.

    Output goes to files under ``work`` (no pipe back-pressure), and the
    exit is reaped with ``wait4`` so the child's peak RSS — the largest
    of it and every descendant it reaped, such as pool workers — comes
    back with it.
    """
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        process = subprocess.Popen(
            repro_command(args, trace_dir), cwd=ROOT, env=program_env(),
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )
        status, usage = _wait4(process)
        wall = time.perf_counter() - start
    return Finished(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def _wait4(process: subprocess.Popen):
    """Reap ``process`` with its rusage; kill it after ``PROGRAM_TIMEOUT``."""
    killer = threading.Timer(PROGRAM_TIMEOUT, process.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(process.pid, 0)
    finally:
        killer.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return status, usage


class Server:
    """A ``repro serve`` subprocess on a free port, stopped with SIGINT."""

    def __init__(self, args: "list[str]", work: Path, tag: str,
                 trace_dir: "Path | None" = None) -> None:
        self.tag = tag
        self._err = open(work / f"{tag}.err", "wb")
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            repro_command(["serve", "--port", "0", *args], trace_dir),
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._err, stdin=subprocess.DEVNULL,
        )
        self.port = None
        self.ready_s = None
        self.peak_rss_mb = None
        self.code = None

    def wait_healthy(self) -> float:
        """Block until ``GET /healthz`` answers 200; returns launch-to-healthy seconds."""
        line = self.process.stdout.readline().decode("utf-8", "replace")
        announced = re.search(r"http://[^:/\s]+:(\d+)", line)
        if announced is None:
            raise RuntimeError(f"server {self.tag} did not announce its port: {line!r}")
        self.port = int(announced.group(1))
        deadline = time.monotonic() + PROGRAM_TIMEOUT
        while time.monotonic() < deadline:
            try:
                connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                body = json.loads(response.read())
                connection.close()
                if response.status == 200 and body.get("status") == "ok":
                    self.ready_s = time.perf_counter() - self.launched
                    return self.ready_s
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(0.002)
        raise RuntimeError(f"server {self.tag} never became healthy")

    def stop(self) -> int:
        """SIGINT (the server's Ctrl-C path), reap, record peak RSS; returns exit code."""
        # os.kill, not Popen.send_signal: the latter polls, which could
        # reap the child before wait4 reads its rusage.
        os.kill(self.process.pid, signal.SIGINT)
        status, usage = _wait4(self.process)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.code = os.waitstatus_to_exitcode(status)
        self.process.stdout.close()
        self._err.close()
        return self.code
