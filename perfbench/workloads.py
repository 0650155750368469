"""The benchmark's three workloads, each a workflow README.md documents.

Every workload generates its inputs from the seed, runs the program as
its real CLI or server process, checks the outputs, and returns its
end-to-end metrics (untraced) or per-layer metrics (traced run).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sqlite3
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import ledger
import loadgen
from procs import ROOT, Server, program_env, run_program
from stats import (due_latencies, generator_lag, median, normalised_auc, percentile,
                   slo_attainment)

#: Launches per run that set-up time is the median of.
SETUP_REPEATS = 3


class CheckFailed(Exception):
    """An output check failed: the run is incorrect, not slow."""


@dataclass
class Outcome:
    """What a run reports: op counts, metrics, and notes printed before the result."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)  # traced run: per-layer name -> value
    ledger: dict = field(default_factory=dict)  # traced run: spans by name, for the file

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _repeat_until(seconds: float, body) -> list:
    """Run ``body(i)`` at least once and again while another fits in ``seconds``."""
    results, start = [], time.perf_counter()
    while True:
        results.append(body(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def _ran(finished, what: str):
    _check(finished.code == 0, f"{what} exited {finished.code}: "
                               f"{finished.stderr.decode(errors='replace')[-400:]}")
    return finished


def import_seconds() -> float:
    """``import repro.cli`` in a fresh interpreter, median of three."""
    script = ("import time; t = time.perf_counter(); import repro.cli; "
              "print(time.perf_counter() - t)")
    values = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=program_env(),
                             capture_output=True, check=True, timeout=120)
        values.append(float(out.stdout.decode().strip()))
    return median(values)


# -- text grid: train-ranker on subj, then run --config on MR ----------------


class MrLhsGrid:
    """``repro train-ranker`` on subj, then ``repro run --config`` on MR with a
    2-job fork pool and checkpoints: the paper's text-classification grid."""

    name = "mr_lhs_grid"
    STRATEGIES = {
        "random": {"kind": "random"},
        "entropy": {"kind": "entropy"},
        "hus:entropy": {"kind": "hus", "params": {"base": {"kind": "entropy"}, "window": 3}},
        "wshs:entropy": {"kind": "wshs", "params": {"base": {"kind": "entropy"}, "window": 3}},
        "fhs:entropy": {"kind": "fhs", "params": {"base": {"kind": "entropy"}, "window": 3}},
        "lhs:entropy": {"kind": "lhs", "params": {"base": {"kind": "entropy"}}},
    }
    SCALE, ROUNDS, BATCH, REPEATS = 0.2, 8, 25, 2

    def __init__(self, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work
        self.ranker = work / "ranker.json"

    def ranker_args(self, output: Path) -> "list[str]":
        return ["train-ranker", "--dataset", "subj", "--scale", "0.15", "--base", "entropy",
                "--predictor", "lstm", "--candidates", "6", "--rounds", "4",
                "--seed", str(self.seed), "--output", str(output)]

    def document(self, tag: str, n_jobs: int = 2) -> Path:
        strategies = json.loads(json.dumps(self.STRATEGIES))
        strategies["lhs:entropy"]["params"]["ranker"] = str(self.ranker)
        checkpoints = self.work / f"ckpt-{tag}"
        shutil.rmtree(checkpoints, ignore_errors=True)
        return _write_json(self.work / f"mr-{tag}.json", {
            "format": "repro.experiment", "version": 1,
            "dataset": {"kind": "mr", "params": {"scale": self.SCALE, "seed": self.seed}},
            "split": {"kind": "fraction", "params": {"test_fraction": 0.3}},
            "model": {"kind": "linear", "params": {"epochs": 5, "batch_size": 32, "seed": 0}},
            "strategies": strategies,
            "experiment": {"batch_size": self.BATCH, "rounds": self.ROUNDS,
                           "repeats": self.REPEATS, "seed": self.seed},
            "runner": {"n_jobs": n_jobs, "checkpoint_dir": str(checkpoints)},
            "report": {"targets": [0.8]},
        })

    @property
    def cells(self) -> int:
        return len(self.STRATEGIES) * self.REPEATS

    def pipeline(self, tag: str, trace_dir: "Path | None" = None, n_jobs: int = 2):
        """train-ranker then run --config; returns (ranker process, run process, doc)."""
        ranker_out = self.ranker if trace_dir is None else self.work / f"ranker-{tag}.json"
        trained = _ran(run_program(
            self.ranker_args(ranker_out), self.work, f"ranker-{tag}",
            None if trace_dir is None else trace_dir / "ranker"), "train-ranker")
        if trace_dir is not None:
            _check(ranker_out.read_bytes() == self.ranker.read_bytes(),
                   "traced train-ranker wrote a different ranker")
        grid, document = self.grid(tag, trace_dir, n_jobs)
        return trained, grid, document

    def grid(self, tag: str, trace_dir: "Path | None" = None, n_jobs: int = 2):
        """run --config on the MR document (the ranker must exist)."""
        document = self.document(tag, n_jobs)
        grid = _ran(run_program(["run", "--config", str(document)], self.work, f"run-{tag}",
                                None if trace_dir is None else trace_dir / "run"),
                    "run --config")
        self.check_checkpoints(tag)
        return grid, document

    def check_checkpoints(self, tag: str) -> None:
        cells = list((self.work / f"ckpt-{tag}").glob("cell_*.json"))
        _check(len(cells) == self.cells, f"{len(cells)} of {self.cells} cells checkpointed")

    def serial_stdout(self, document: Path) -> bytes:
        """The report an in-process serial ``execute_experiment`` prints."""
        from repro import cli
        from repro.experiments.sweep import execute_experiment
        from repro.specs import ExperimentSpec

        spec = ExperimentSpec.from_file(document)
        spec.runner["n_jobs"] = 1
        spec.runner["checkpoint_dir"] = None
        results, train, _test, task = execute_experiment(spec)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli._print_report(spec, results, train, task)
        return out.getvalue().encode("utf-8")

    def run(self, seconds: float, outcome: Outcome) -> None:
        reps = _repeat_until(seconds, lambda i: self.pipeline(f"r{i}"))
        outcome.attempted += self.cells * len(reps)
        setups = [_ran(run_program(["config", "validate", str(reps[0][2])], self.work,
                                   f"setup{i}"), "config validate").wall_s
                  for i in range(SETUP_REPEATS)]
        reference = self.serial_stdout(reps[0][2])
        for trained, grid, _doc in reps:
            _check(grid.stdout == reference,
                   "pool run stdout differs from an in-process serial execute_experiment")
        walls = [trained.wall_s + grid.wall_s for trained, grid, _doc in reps]
        outcome.put("setup_s", median(setups), "s")
        outcome.put("wall_s", median(walls), "s")
        outcome.put("curve_auc", report_auc(reps[0][1].stdout.decode()), "ratio")
        outcome.put("peak_rss_mb", max(max(t.peak_rss_mb, g.peak_rss_mb) for t, g, _ in reps),
                    "MB")
        outcome.put("sessions_per_s", self.cells / median(g.wall_s for _, g, _ in reps), "1/s")

    def traced(self, seconds: float, outcome: Outcome) -> None:
        plain_ranker, untraced, _doc = self.pipeline("plain")
        trace_dir, serial_dir = self.work / "trace-pool", self.work / "trace-serial"
        trained, grid, _doc = self.pipeline("pool", trace_dir)
        _check(grid.stdout == untraced.stdout, "traced stdout differs from untraced stdout")
        serial, _doc = self.grid("serial", serial_dir, n_jobs=1)
        _check(serial.stdout == untraced.stdout, "serial stdout differs from pool stdout")
        outcome.attempted += 3 * self.cells
        pool_grid = ledger.TracedRun.load(trace_dir / "run", grid.wall_s)
        pool_run = ledger.TracedRun.load(trace_dir / "ranker", trained.wall_s).merged(pool_grid)
        serial_grid = ledger.TracedRun.load(serial_dir / "run", serial.wall_s)
        metrics = ledger.layer_metrics(pool_run)
        metrics.update(ledger.gap_metrics(pool_grid, serial_grid))
        metrics["experiments.checkpoint_bytes"] = _tree_bytes(self.work / "ckpt-pool")
        metrics["trace.overhead_s"] = (trained.wall_s + grid.wall_s) - (
            plain_ranker.wall_s + untraced.wall_s)
        outcome.notes += [
            ledger.ledger_table("ledger: mr_lhs_grid, train-ranker + pool run (n_jobs 2)",
                                pool_run),
            ledger.ledger_table("ledger: mr_lhs_grid, serial run (n_jobs 1)", serial_grid),
            ledger.gap_table(pool_grid, serial_grid),
        ]
        outcome.layer = metrics
        outcome.ledger = {"pool": ledger.by_name(pool_run), "serial": ledger.by_name(serial_grid)}


def report_auc(stdout: str) -> float:
    """Mean normalised AUC over the strategies of a curve table in ``stdout``."""
    lines = stdout.splitlines()
    headers = [i for i, line in enumerate(lines) if line.startswith("strategy ") and "|" in line]
    _check(bool(headers), "no curve table in the report")
    header = headers[0]
    counts = [int(cell) for cell in lines[header].split("|")[1:]]
    areas = []
    for line in lines[header + 2:]:
        if "|" not in line:
            break
        values = [float(cell) for cell in line.split("|")[1:]]
        areas.append(normalised_auc(counts, values))
    _check(bool(areas), "no curve rows in the report")
    return sum(areas) / len(areas)


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- sequence-labelling sweep: repro sweep run on conll-en ---------------------


class ConllNoiseSweep:
    """``repro sweep run``: CRF on conll-en across a clean/label-noise axis,
    serial, with flip tracking and the final/auc/speedup/contradiction metrics."""

    name = "conll_noise_sweep"
    STRATEGIES = ("random", "mnlp", "wshs:mnlp")
    METRICS = ("final", "auc", "speedup", "contradiction")
    NOISE = (("clean", None), ("p20", 0.2))
    SCALE, ROUNDS, BATCH = 0.08, 6, 20

    def __init__(self, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work

    @property
    def cells(self) -> int:
        return len(self.STRATEGIES) * len(self.NOISE)

    def document(self) -> Path:
        noise = []
        for name, rate in self.NOISE:
            cell = {"name": name}
            if rate is not None:
                cell["transforms"] = [{"kind": "label_noise", "params": {"rate": rate}}]
            noise.append(cell)
        metrics = [{"kind": kind} for kind in self.METRICS]
        metrics[2]["params"] = {"fraction": 0.9, "baseline": "random"}
        return _write_json(self.work / "sweep.json", {
            "format": "repro.sweep", "version": 1, "name": "conll_noise",
            "base": {
                "format": "repro.experiment", "version": 1,
                "dataset": {"kind": "conll-en", "params": {"scale": self.SCALE,
                                                           "seed": self.seed}},
                "split": {"kind": "fraction", "params": {"test_fraction": 0.3}},
                "strategies": {
                    "random": {"kind": "random"},
                    "mnlp": {"kind": "mnlp"},
                    "wshs:mnlp": {"kind": "wshs",
                                  "params": {"base": {"kind": "mnlp"}, "window": 3}},
                },
                "experiment": {"batch_size": self.BATCH, "rounds": self.ROUNDS, "repeats": 1,
                               "seed": self.seed, "track_flips": True},
            },
            "scenario_seed": self.seed,
            "axes": [{"name": "noise", "cells": noise}],
            "metrics": metrics,
        })

    def sweep(self, document: Path, tag: str, trace_dir: "Path | None" = None):
        sweep_dir = self.work / f"sweep-{tag}"
        shutil.rmtree(sweep_dir, ignore_errors=True)
        finished = _ran(run_program(["sweep", "run", str(document), "--sweep-dir",
                                     str(sweep_dir)], self.work, f"sweep-{tag}", trace_dir),
                        "sweep run")
        return finished, self.check(finished, sweep_dir)

    def check(self, finished, sweep_dir: Path) -> "dict[str, dict[str, list[float]]]":
        """No cell dropped, every cell checkpointed, every metric matrix complete."""
        stdout = finished.stdout.decode()
        _check("dropped cell" not in finished.stderr.decode(), "the sweep dropped a cell")
        _check(stdout.count("=== cell ") == len(self.NOISE), "a sweep cell is missing")
        checkpoints = list(sweep_dir.glob("cells/*/checkpoints/cell_*.json"))
        _check(len(checkpoints) == self.cells,
               f"{len(checkpoints)} of {self.cells} grid cells checkpointed")
        matrices = {}
        for metric in self.METRICS:
            for strategy in self.STRATEGIES:
                title = f"{metric} [{strategy}] across the grid"
                _check(title in stdout, f"matrix {title!r} missing")
                block = stdout.split(title, 1)[1].splitlines()
                row = next(line for line in block[1:] if line.startswith("      |"))
                values = [cell.strip() for cell in row.split("|")[1:]]
                _check(len(values) == len(self.NOISE) and "-" not in values,
                       f"matrix {title!r} is incomplete: {values}")
                matrices.setdefault(metric, {})[strategy] = [float(v) for v in values]
        return matrices

    def run(self, seconds: float, outcome: Outcome) -> None:
        document = self.document()
        reps = _repeat_until(seconds, lambda i: self.sweep(document, f"r{i}"))
        outcome.attempted += self.cells * len(reps)
        setups = [_ran(run_program(["sweep", "validate", str(document)], self.work,
                                   f"setup{i}"), "sweep validate").wall_s
                  for i in range(SETUP_REPEATS)]
        for finished, _matrices in reps[1:]:
            _check(finished.stdout == reps[0][0].stdout, "repeated sweep output differs")
        aucs = [v for values in reps[0][1]["auc"].values() for v in values]
        outcome.put("setup_s", median(setups), "s")
        outcome.put("wall_s", median(f.wall_s for f, _ in reps), "s")
        outcome.put("curve_auc", sum(aucs) / len(aucs), "ratio")
        outcome.put("peak_rss_mb", max(f.peak_rss_mb for f, _ in reps), "MB")
        outcome.put("sessions_per_s", self.cells / median(f.wall_s for f, _ in reps), "1/s")

    def traced(self, seconds: float, outcome: Outcome) -> None:
        document = self.document()
        untraced, _ = self.sweep(document, "plain")
        trace_dir = self.work / "trace"
        traced, _ = self.sweep(document, "traced", trace_dir)
        outcome.attempted += 2 * self.cells
        _check(traced.stdout == untraced.stdout, "traced stdout differs from untraced stdout")
        run = ledger.TracedRun.load(trace_dir, traced.wall_s)
        metrics = ledger.layer_metrics(run)
        metrics["experiments.checkpoint_bytes"] = _tree_bytes(self.work / "sweep-traced")
        metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        outcome.notes.append(ledger.ledger_table("ledger: conll_noise_sweep (serial)", run))
        outcome.layer = metrics
        outcome.ledger = {"sweep": ledger.by_name(run)}


# -- annotation service: repro serve under closed- and open-loop load ---------


class AnnotationService:
    """``repro serve`` with a JSON and a sqlite store; short MR wshs:entropy
    sessions with oracle ingest, closed loop on 2 connections, then open loop."""

    name = "annotation_service"
    RECIPE = {"dataset": "mr", "scale": 0.05, "strategy": "wshs:entropy", "rounds": 2,
              "batch_size": 10, "epochs": 3}
    #: Closed-loop capacity (sessions/s) the run is sized by, and the
    #: closed-loop phase's share of ``--seconds``.
    CLOSED_RATE, CLOSED_SHARE = 4.0, 0.6
    #: Open-loop arrival rate (sessions/s), below closed-loop capacity, and
    #: the phase's share of ``--seconds``.
    OPEN_RATE, OPEN_SHARE = 2.0, 0.4
    #: Latency limit of the open-loop SLO.
    SLO_MS = 500.0
    def __init__(self, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work

    def sessions(self, prefix: str, count: int) -> "list[loadgen.SessionRun]":
        return [
            loadgen.SessionRun(
                session_id=f"{prefix}{i}", store=("json", "sqlite")[i % 2],
                recipe=dict(self.RECIPE, seed=self.seed * 1000 + i),
            )
            for i in range(count)
        ]

    def server(self, tag: str, trace_dir: "Path | None" = None) -> Server:
        stores = self.work / f"stores-{tag}"
        shutil.rmtree(stores, ignore_errors=True)
        stores.mkdir(parents=True)
        return Server(["--json-dir", str(stores / "json"), "--sqlite",
                       str(stores / "sessions.db")], self.work, f"serve-{tag}", trace_dir)

    def closed_count(self, seconds: float) -> int:
        return max(4, round(seconds * self.CLOSED_SHARE * self.CLOSED_RATE))

    def serve(self, seconds: float, tag: str):
        """One untraced server under both load phases.

        Returns ``(server, closed-loop runs, closed-loop wall, open-loop runs)``.
        """
        server = self.server(tag)
        try:
            server.wait_healthy()
            closed = self.sessions(f"{tag}-c", self.closed_count(seconds))
            wall = loadgen.closed_loop(server.port, closed)
            offsets = loadgen.arrival_schedule(
                self.seed, max(2, round(seconds * self.OPEN_SHARE * self.OPEN_RATE)),
                self.OPEN_RATE)
            opened = self.sessions(f"{tag}-o", len(offsets))
            loadgen.open_loop(server.port, opened, offsets)
        finally:
            code = server.stop()
        _check(code in (0, 130), f"server exited {code}")
        return server, closed, wall, opened

    def check_identity(self, closed, opened) -> None:
        """Served audit trails must equal serial in-process engine runs.

        Checked on the first finished closed-loop session of each store
        and the first finished open-loop session.
        """
        from repro.core.loop import run_to_completion
        from repro.core.session import SessionEngine
        from repro.experiments.checkpoint import result_to_dict
        from repro.service.app import build_session_components

        samples = [next((r for r in closed if r.ok and r.store == store), None)
                   for store in ("json", "sqlite")]
        samples.append(next((r for r in opened if r.ok), None))
        _check(None not in samples, "no finished session to check in some store or phase")
        for run in samples:
            train, test, model, strategy, settings = build_session_components(run.recipe)
            engine = SessionEngine(
                model, strategy, train, test, batch_size=settings["batch_size"],
                rounds=settings["rounds"], initial_size=settings["initial_size"],
                seed_or_rng=settings["seed"], training_mode=settings["training_mode"])
            expected = json.dumps(result_to_dict(run_to_completion(engine)))
            _check(run.result_json == expected,
                   f"served session {run.session_id} differs from a serial engine run")

    @staticmethod
    def count(outcome: Outcome, runs) -> None:
        for run in runs:
            outcome.attempted += len(run.requests)
            outcome.failed += sum(not loadgen.succeeded(r[4]) for r in run.requests)

    def run(self, seconds: float, outcome: Outcome) -> None:
        setups = []
        for i in range(SETUP_REPEATS - 1):
            server = self.server(f"setup{i}")
            try:
                setups.append(server.wait_healthy())
            finally:
                server.stop()
        server, closed, wall, opened = self.serve(seconds, "load")
        setups.append(server.ready_s)
        self.count(outcome, closed + opened)
        self.check_identity(closed, opened)
        outcome.put("setup_s", median(setups), "s")
        outcome.put("wall_s", wall, "s")
        curves = [run.curve for run in closed if run.ok]
        _check(bool(curves), "no closed-loop session finished")
        outcome.put("curve_auc", sum(normalised_auc([p[0] for p in c], [p[1] for p in c])
                                     for c in curves) / len(curves), "ratio")
        outcome.put("peak_rss_mb", server.peak_rss_mb, "MB")
        outcome.put("sessions_per_s", sum(run.ok for run in closed) / wall, "1/s")
        self.latency_metrics(outcome, closed, opened)

    def latency_metrics(self, outcome: Outcome, closed, opened) -> dict:
        """The closed-loop percentiles and the open-loop tail, SLO and lag."""
        latencies = [(r[3] - r[2]) * 1e3 for run in closed for r in run.requests
                     if loadgen.succeeded(r[4])]
        p50, samples = percentile(latencies, 50)
        p99, _ = percentile(latencies, 99)
        requests = [r for run in opened for r in run.requests]
        good = [r for r in requests if loadgen.succeeded(r[4])]
        open_ms = [1e3 * v for v in due_latencies([r[1] for r in good], [r[3] for r in good])]
        open_p99, open_samples = percentile(open_ms, 99)
        arrivals = [run.requests[0] for run in opened if run.requests]
        lag = generator_lag([r[1] for r in arrivals], [r[2] for r in arrivals])
        values = {
            "request_p50_ms": p50, "request_p99_ms": p99, "request_samples": samples,
            "open_p99_ms": open_p99, "open_samples": open_samples,
            "slo_attainment": slo_attainment(open_ms, self.SLO_MS,
                                             failures=len(requests) - len(good)),
            "loadgen.lag_ms": 1e3 * max(lag),
            "service.cas_conflicts": sum(r[4] == 409 for run in closed + opened
                                         for r in run.requests),
        }
        outcome.notes.append(
            f"closed loop: p50 {p50:.1f} ms, p99 {p99:.1f} ms over {samples} requests; "
            f"open loop ({self.OPEN_RATE}/s): p99 {open_p99:.1f} ms from due time over "
            f"{open_samples} requests, {100 * values['slo_attainment']:.1f}% within "
            f"{self.SLO_MS:.0f} ms, generator lag max {values['loadgen.lag_ms']:.2f} ms")
        return values

    def traced(self, seconds: float, outcome: Outcome) -> None:
        _server, closed, wall, opened = self.serve(seconds, "plain")
        values = self.latency_metrics(outcome, closed, opened)
        trace_dir = self.work / "trace"
        # The traced server replays the closed-loop sessions (same ids, fresh stores).
        server = self.server("traced", trace_dir)
        try:
            server.wait_healthy()
            replay = self.sessions("plain-c", len(closed))
            traced_wall = loadgen.closed_loop(server.port, replay)
        finally:
            code = server.stop()
        _check(code in (0, 130), f"traced server exited {code}")
        self.count(outcome, closed + opened + replay)
        for plain, again in zip(closed, replay):
            _check(plain.result_json == again.result_json,
                   f"traced session {again.session_id} differs from the untraced one")
        run = ledger.TracedRun.load(trace_dir, traced_wall)
        client_s = sum(r[3] - r[2] for session in replay for r in session.requests)
        handler_s = run.total_s("service.http")
        operations_s = sum(run.total_s(f"service.{op}") for op in ("create", "propose", "ingest"))
        requests = sum(len(session.requests) for session in replay)
        metrics = ledger.layer_metrics(run)
        metrics.update(values)
        metrics["service.doc_bytes"] = _mean_doc_bytes(self.work / "stores-traced")
        metrics["service.http_overhead_ms"] = 1e3 * (client_s - operations_s) / requests
        metrics["ledger.base_s"] = client_s
        metrics["ledger.unattributed_s"] = client_s - handler_s
        metrics["trace.overhead_s"] = traced_wall - wall
        outcome.notes.append(service_table(run, client_s, handler_s, requests))
        outcome.layer = metrics
        outcome.ledger = {"server": ledger.by_name(run)}


def service_table(run: "ledger.TracedRun", client_s: float, handler_s: float,
                  requests: int) -> str:
    """The service ledger: server-side layer self times against client latency.

    ``service`` includes the HTTP handler's own decode/dispatch/encode;
    ``unattributed`` is latency outside the handler (socket, waiting for
    a handler thread or the GIL).
    """
    lines = ["ledger: annotation_service, traced closed loop",
             f"  base: {client_s:.3f} s of client-observed latency over {requests} requests"]
    for layer, seconds in run.layers().items():
        if seconds and layer != "cli":  # the server's import precedes every request
            lines.append(f"    {layer:<12} {seconds:9.3f} s  {100 * seconds / client_s:5.1f}%")
    lines.append(f"    {'unattributed':<12} {client_s - handler_s:9.3f} s  "
                 f"{100 * (client_s - handler_s) / client_s:5.1f}%  (outside the handler)")
    return "\n".join(lines)


def _mean_doc_bytes(stores: Path) -> float:
    """Mean stored session-document size across both stores."""
    sizes = [p.stat().st_size for p in (stores / "json").glob("*.json")]
    database = stores / "sessions.db"
    if database.exists():
        with contextlib.closing(sqlite3.connect(database)) as connection:
            sizes += [row[0] for row in connection.execute(
                "SELECT length(document) FROM sessions")]
    return sum(sizes) / len(sizes) if sizes else 0.0


WORKLOADS = {cls.name: cls for cls in (MrLhsGrid, ConllNoiseSweep, AnnotationService)}
