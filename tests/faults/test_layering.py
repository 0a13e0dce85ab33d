"""The fault models stay light: importing them loads no serving stack.

The evaluation runner and the benchmarks import :mod:`repro.faults` for
the Ch. IV fault models.  The chaos harnesses that drive the durable
gateway and the ingest service live in :mod:`repro.faults.crash` and
:mod:`repro.faults.net`, and the package must not pull them in.  A fresh
interpreter shows what an import loads, whatever this test session has
already imported.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")

SCRIPT = """
import json, sys
import repro.eval, repro.faults
print(json.dumps(sorted(sys.modules)))
"""

SERVING_STACK = (
    "repro.service",
    "repro.durability",
    "repro.fleet",
    "repro.streaming",
    "asyncio",
)


def test_eval_and_fault_models_load_no_serving_stack():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = json.loads(proc.stdout)
    leaked = [
        name
        for name in loaded
        if any(name == root or name.startswith(root + ".") for root in SERVING_STACK)
    ]
    assert leaked == []
