"""Run one ``repro`` CLI command with the benchmark's tracer installed.

    python3 perfbench/traced_main.py TRACE_DIR -- compare --dataset mr ...

Behaves like ``python3 -m repro ...`` (same stdout, stderr and exit
code) but records spans around every layer's entry points and writes
them under ``TRACE_DIR`` when the command ends, plus ``meta.<pid>.json``
with the process's traced window.  ``repro`` must be importable
(``PYTHONPATH=src``).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402


def main(argv: "list[str]") -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_main.py TRACE_DIR -- <repro arguments>", file=sys.stderr)
        return 2
    trace_dir = Path(argv[0])
    tracer = Tracer(trace_dir)
    code = 1
    try:
        # The import is the cli layer's cost (scipy.stats dominates it).
        cli = tracer.record("cli.import", _import_cli, (), {})
        install(tracer)
        code = cli.main(argv[2:])
    finally:
        tracer.uninstall()
        tracer.flush()
        meta = {"pid": os.getpid(), "start": STARTED, "end": time.perf_counter()}
        (trace_dir / f"meta.{os.getpid()}.json").write_text(json.dumps(meta))
    return code


def _import_cli():
    import repro.cli

    return repro.cli


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
