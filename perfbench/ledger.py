"""Per-layer ledger of a traced run: self times by layer, with their base.

Layers are the ``repro`` packages a span's name starts with (``cli``,
``data``, ``specs``, ``models``, ``core``, ``ltr``, ``eval``,
``experiments``, ``service``) plus ``wait`` — the main process blocked
on pool workers.  Self times are summed over every process of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from stats import median
from tracing import layer_of, load_spans, self_times, top_level

LAYERS = ("cli", "data", "specs", "models", "core", "ltr", "eval", "experiments",
          "service", "wait")
#: Layers the MR ``run --config`` exercises, compared pool against serial
#: (``wait`` is idle time; ``ltr`` and ``eval`` never run in that process).
GAP_LAYERS = ("cli", "data", "specs", "models", "core", "experiments", "service")
FAMILIES = ("linear", "crf", "lstm")


class TracedRun:
    """The spans and process windows of one traced program run."""

    def __init__(self, spans: "list[dict]", main_pids: set, wall_s: float) -> None:
        self.spans = spans  # with "self" times
        self.main_pids = main_pids  # the traced CLI processes (not pool workers)
        self.wall_s = wall_s  # launch-to-exit of the main processes

    @classmethod
    def load(cls, trace_dir: "str | Path", wall_s: float) -> "TracedRun":
        metas = [json.loads(p.read_text()) for p in Path(trace_dir).glob("meta.*.json")]
        return cls(self_times(load_spans(trace_dir)), {m["pid"] for m in metas}, wall_s)

    def merged(self, other: "TracedRun") -> "TracedRun":
        """Two traced processes run one after the other, as one ledger."""
        return TracedRun(self.spans + other.spans, self.main_pids | other.main_pids,
                         self.wall_s + other.wall_s)

    def self_s(self, name: str) -> float:
        return sum(span["self"] for span in self.spans if span["name"] == name)

    def total_s(self, name: str) -> float:
        """Inclusive time of the outermost spans called ``name``."""
        return sum(s["end"] - s["start"] for s in top_level(self.spans, name)
                   if s["name"] == name)

    def calls(self, prefix: str) -> int:
        return len(top_level(self.spans, prefix))

    def layers(self, main_only: bool = False) -> "dict[str, float]":
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            if main_only and span["pid"] not in self.main_pids:
                continue
            layer = layer_of(span["name"])
            totals[layer] = totals.get(layer, 0.0) + span["self"]
        return totals

    def unattributed_s(self) -> float:
        """Main-process wall not covered by any span (startup, argparse, reports)."""
        return self.wall_s - sum(self.layers(main_only=True).values())

    def cells(self) -> "list[dict]":
        return [s for s in self.spans if s["name"] == "experiments.cell"]

    def worker_busy(self) -> "tuple[float, int, float]":
        """``(summed cell seconds, workers, grid wall seconds)``."""
        cells = self.cells()
        if not cells:
            return 0.0, 0, 0.0
        busy = sum(s["end"] - s["start"] for s in cells)
        workers = len({s["pid"] for s in cells})
        grid_wall = max(s["end"] for s in cells) - min(s["start"] for s in cells)
        return busy, workers, grid_wall


def layer_metrics(run: TracedRun) -> "dict[str, float]":
    """The span-derived per-layer metrics (see ``BENCHMARK.json``)."""
    metrics = {
        "cli.import_s": run.self_s("cli.import"),
        "data.build_s": run.self_s("data.build"),
        "data.build_calls": run.calls("data.build"),
        "data.featurize_s": run.self_s("data.featurize"),
        "data.featurize_calls": run.calls("data.featurize"),
        "data.transform_s": run.self_s("data.transform"),
    }
    for family in FAMILIES:
        for kind in ("fit", "predict"):
            name = f"models.{family}.{kind}"
            metrics[f"{name}_s"] = run.self_s(name)
            metrics[f"{name}_calls"] = run.calls(name)
    for phase in ("train", "evaluate", "propose", "commit", "select", "history_append",
                  "lhs_features", "ranker_train"):
        metrics[f"core.{phase}_s"] = run.self_s(f"core.{phase}")
    metrics["ltr.fit_s"] = run.self_s("ltr.fit")
    metrics["eval.pipeline_s"] = run.self_s("eval.pipeline")
    durations = [s["end"] - s["start"] for s in run.cells()]
    metrics["experiments.cell_p50_s"] = median(durations) if durations else 0.0
    metrics["experiments.cell_max_s"] = max(durations) if durations else 0.0
    busy, workers, grid_wall = run.worker_busy()
    metrics["experiments.worker_busy_ratio"] = busy / (workers * grid_wall) if workers else 0.0
    metrics["experiments.checkpoint_save_s"] = run.total_s("experiments.checkpoint_save")
    for operation in ("create", "propose", "ingest"):
        metrics[f"service.{operation}_s"] = run.total_s(f"service.{operation}")
    for store in ("json", "sqlite"):
        metrics[f"service.{store}.save_s"] = run.self_s(f"service.{store}.save")
        metrics[f"service.{store}.save_calls"] = run.calls(f"service.{store}.save")
        metrics[f"service.{store}.load_s"] = run.self_s(f"service.{store}.load")
    metrics["service.snapshot_s"] = run.self_s("core.snapshot")
    for layer, seconds in run.layers().items():
        metrics[f"layer.{layer}_s"] = seconds
    metrics["ledger.base_s"] = run.wall_s
    metrics["ledger.unattributed_s"] = run.unattributed_s()
    return metrics


def ledger_table(title: str, run: TracedRun) -> str:
    """Human-readable ledger: main-process layers against the traced wall,
    then worker-process layers against the workers' summed cell time."""
    main = run.layers(main_only=True)
    lines = [f"{title}", f"  base: traced launch-to-exit wall {run.wall_s:.3f} s "
                         f"(main process{'es' if len(run.main_pids) > 1 else ''})"]
    for layer in LAYERS:
        if main[layer]:
            lines.append(f"    {layer:<12} {main[layer]:9.3f} s  "
                         f"{100 * main[layer] / run.wall_s:5.1f}%")
    unattributed = run.unattributed_s()
    lines.append(f"    {'unattributed':<12} {unattributed:9.3f} s  "
                 f"{100 * unattributed / run.wall_s:5.1f}%")
    busy, workers, grid_wall = run.worker_busy()
    everything = run.layers()
    worker = {layer: everything[layer] - main[layer] for layer in LAYERS}
    if any(worker.values()):
        lines.append(f"  base: {busy:.3f} s of cells summed over {workers} worker "
                     f"process(es); grid wall {grid_wall:.3f} s, busy ratio "
                     f"{busy / (workers * grid_wall):.3f}")
        for layer in LAYERS:
            if worker[layer]:
                lines.append(f"    {layer:<12} {worker[layer]:9.3f} s  "
                             f"{100 * worker[layer] / busy:5.1f}%")
    return "\n".join(lines)


def gap_metrics(pool: TracedRun, serial: TracedRun) -> "dict[str, float]":
    """Where the pool run's extra time goes: per-layer self time, pool − serial."""
    metrics = {"gap.wall_s": pool.wall_s - serial.wall_s}
    pool_layers, serial_layers = pool.layers(), serial.layers()
    for layer in GAP_LAYERS:
        metrics[f"gap.{layer}_s"] = pool_layers[layer] - serial_layers[layer]
    for label, run in (("", pool), ("serial.", serial)):
        calls = run.calls("models.linear.fit")
        per_call = run.self_s("models.linear.fit") / calls if calls else 0.0
        metrics[f"{label}models.linear.fit_per_call_ms"] = 1e3 * per_call
    return metrics


def gap_table(pool: TracedRun, serial: TracedRun) -> str:
    pool_layers, serial_layers = pool.layers(), serial.layers()
    lines = ["pool vs serial, self time summed over all processes",
             f"  {'layer':<12} {'pool s':>9} {'serial s':>9} {'gap s':>9}"]
    for layer in GAP_LAYERS:
        if pool_layers[layer] or serial_layers[layer]:
            lines.append(f"  {layer:<12} {pool_layers[layer]:9.3f} {serial_layers[layer]:9.3f} "
                         f"{pool_layers[layer] - serial_layers[layer]:9.3f}")
    lines.append(f"  {'wall':<12} {pool.wall_s:9.3f} {serial.wall_s:9.3f} "
                 f"{pool.wall_s - serial.wall_s:9.3f}")
    return "\n".join(lines)


def by_name(run: TracedRun) -> "dict[str, dict]":
    """``{span name: {calls, self_s}}`` for the ledger file."""
    table = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span in run.spans:
        table[span["name"]]["calls"] += 1
        table[span["name"]]["self_s"] += span["self"]
    return dict(sorted(table.items()))
