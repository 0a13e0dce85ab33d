"""The light entry points stay light: importing them loads no serving or
detector stack.

The evaluation runner and the benchmarks import :mod:`repro.faults` for
the Ch. IV fault models, and evaluate every segment pair in one process,
so they load no process pool.  The chaos harnesses that drive the
durable gateway and the ingest service live in :mod:`repro.faults.crash`
and :mod:`repro.faults.net`, and the package must not pull them in.  The
sending client (``repro send``) and the CLI parser need only the frame
codec and the fault names, not the detector behind the server.  A fresh
interpreter shows what an import loads, whatever this test session has
already imported.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")

SCRIPT = """
import json, sys
{statement}
print(json.dumps(sorted(sys.modules)))
"""

SERVING_STACK = (
    "repro.service",
    "repro.durability",
    "repro.fleet",
    "repro.streaming",
    "asyncio",
)

PROCESS_POOL = ("multiprocessing", "concurrent.futures.process")

DETECTOR_STACK = (
    "repro.core",
    "repro.fleet",
    "repro.streaming",
    "repro.smarthome",
)


def _leaked(statement, roots):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(statement=statement)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = json.loads(proc.stdout)
    return [
        name
        for name in loaded
        if any(name == root or name.startswith(root + ".") for root in roots)
    ]


def test_eval_and_fault_models_load_no_serving_stack():
    roots = SERVING_STACK + PROCESS_POOL
    assert _leaked("import repro.eval, repro.faults", roots) == []


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.service.client",
        "from repro.cli import _build_parser; _build_parser()",
    ],
    ids=["client", "cli-parser"],
)
def test_client_and_parser_load_no_detector_stack(statement):
    assert _leaked(statement, DETECTOR_STACK) == []
