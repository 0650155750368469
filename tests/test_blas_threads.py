"""Every ``repro`` process defaults to one BLAS thread, and the count never
changes a result.

Importing the package sets ``OPENBLAS_NUM_THREADS`` (and the OpenMP/MKL
equivalents) to ``1`` unless the caller set them.  The checks run in
fresh interpreters: numpy reads the variables once, when it loads BLAS,
and this test session has loaded it long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_env(**overrides) -> dict:
    """This process's environment without the thread variables, plus ``overrides``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(SRC)
    env.update(overrides)
    return env


def thread_variables_after_import(env: dict) -> dict:
    probe = (
        "import json, os\n"
        "import repro\n"
        f"print(json.dumps({{k: os.environ.get(k) for k in {THREAD_VARIABLES!r}}}))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_import_pins_one_thread_by_default():
    assert thread_variables_after_import(fresh_env()) == dict.fromkeys(THREAD_VARIABLES, "1")


def test_preset_thread_count_wins():
    seen = thread_variables_after_import(fresh_env(OPENBLAS_NUM_THREADS="3"))
    assert seen == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_grid(tmp_path: Path, tag: str, env: dict) -> "tuple[bytes, dict]":
    """``repro run --config`` on a tiny two-job MR grid; (stdout, checkpoints)."""
    checkpoints = tmp_path / f"ckpt-{tag}"
    document = tmp_path / f"mr-{tag}.json"
    document.write_text(json.dumps({
        "format": "repro.experiment", "version": 1,
        "dataset": {"kind": "mr", "params": {"scale": 0.05, "seed": 5}},
        "split": {"kind": "fraction", "params": {"test_fraction": 0.3}},
        "model": {"kind": "linear", "params": {"epochs": 3, "seed": 0}},
        "strategies": {
            "entropy": {"kind": "entropy"},
            "wshs:entropy": {"kind": "wshs", "params": {"base": {"kind": "entropy"}, "window": 2}},
        },
        "experiment": {"batch_size": 10, "rounds": 3, "repeats": 2, "seed": 5},
        "runner": {"n_jobs": 2, "checkpoint_dir": str(checkpoints)},
    }))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "run", "--config", str(document)],
        env=env, capture_output=True, check=True, timeout=300,
    )
    saved = {path.name: path.read_bytes() for path in sorted(checkpoints.glob("*.json"))}
    assert len(saved) == 4
    return completed.stdout, saved


def test_thread_count_never_changes_a_grid(tmp_path):
    pinned = run_grid(tmp_path, "pinned", fresh_env())
    threaded = run_grid(tmp_path, "threaded", fresh_env(OPENBLAS_NUM_THREADS="2"))
    assert pinned[0] == threaded[0]
    assert pinned[1] == threaded[1]
