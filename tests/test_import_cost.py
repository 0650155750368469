"""Start-up cost guard: importing the CLI must not pull in scipy.

Every ``repro`` process (CLI call, spawned worker, server) pays the
package import before doing any work; ``scipy.stats`` alone used to be
most of it.  The check runs in a fresh interpreter so modules imported
by other tests in this session cannot mask (or fake) a stray import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import json, sys\n"
        "import repro.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(completed.stdout.splitlines()[-1]) == []


def test_package_does_not_declare_scipy():
    tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
    config = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    assert not any(
        requirement.lower().startswith("scipy")
        for requirement in config["project"]["dependencies"]
    )
