"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mr_lhs_grid --seed 1 --seconds 10 --trace 0

Run from the checkout root.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json`` from untraced runs of the program;
``--trace 1`` adds a traced run and reports the per-layer metrics (and
prints the layer ledger).  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed output
check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: Thread-count variables the BLAS/OpenMP runtimes read, recorded as found.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402 - needs the paths above

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env), flush=True)
    work_root = HERE / ".work"
    work = work_root / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Temporary files of this process and of every program process stay
    # inside the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    outcome = workloads.Outcome()
    correct = True
    try:
        if args.trace:
            workload.traced(args.seconds, outcome)
            outcome.layer["cli.import_s"] = workloads.import_seconds()
        else:
            workload.run(args.seconds, outcome)
    except workloads.CheckFailed as error:
        correct = False
        print(f"check failed: {error}", file=sys.stderr)
    finally:
        keep = work_root / f"spans-{args.workload}-s{args.seed}"
        shutil.rmtree(keep, ignore_errors=True)
        traces = sorted(work.glob("trace*"))
        if traces:
            keep.mkdir()
            for trace in traces:
                trace.rename(keep / trace.name)
        shutil.rmtree(work, ignore_errors=True)
    for note in outcome.notes:
        print(note)
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(1, outcome.attempted),
                          "failed": max(1, outcome.failed), "metrics": {}}))
        return 1
    if args.trace:
        metrics = {m["name"]: {"value": float(outcome.layer.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in benchmark["per_layer"]}
        ledger_file = work_root / f"ledger-{args.workload}-s{args.seed}.json"
        ledger_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": env,
            "metrics": outcome.layer, "spans_by_name": outcome.ledger,
        }, indent=2) + "\n")
        print(f"ledger written to {ledger_file.relative_to(ROOT)}; raw spans under "
              f"{keep.relative_to(ROOT)}")
    else:
        metrics = {}
        for metric in benchmark["end_to_end"]:
            value, unit = outcome.metrics[metric["name"]]
            if unit != metric["unit"]:
                raise AssertionError(f"{metric['name']}: unit {unit} != {metric['unit']}")
            metrics[metric["name"]] = {"value": value, "unit": unit}
        for name, entry in metrics.items():
            print(f"{name:<16} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": True, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - the benchmark's own boundary
        traceback.print_exc()
        sys.exit(1)
