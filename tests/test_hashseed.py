"""Metamorphic oracle: the interpreter's hash seed is invisible.

Python salts ``str`` hashes per process (``PYTHONHASHSEED``), so the
iteration order of every set and frozenset of device ids changes from one
run to the next.  Nothing the gateway publishes may depend on it: fitting
and replaying the same traces under two seeds must give the same context
hashes, the same alerts (devices sorted, since a frozenset has no order)
and byte-identical provenance records.  The seed is fixed at interpreter
start, so each seed runs in its own subprocess.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_TRACE = os.path.join(ROOT, "tests", "golden", "trace.csv")

# Fits DICE on the committed golden trace (binary houseA, fail-stopped
# fridge) and on a D_houseA slice with numeric sensors and actuators; two
# injected faults there raise a two-device identification and transition
# alerts with cases.  The supervisor is as lenient as the golden replay's,
# so no device is quarantined and every window is checked unmasked.
SCRIPT = r"""
import sys

import numpy as np

from repro.core import DiceDetector, context_hash
from repro.datasets import load_dataset
from repro.datasets.io import read_trace
from repro.faults import FaultType, InjectedFault, apply_fault
from repro.fleet import FleetGateway
from repro.streaming import SupervisorPolicy
from repro.telemetry.provenance import canonical_record_bytes

POLICY = SupervisorPolicy(silence_seconds=1e6, quarantine_seconds=2e6)


def replay(name, trace, train_hours):
    split = trace.start + train_hours * 3600.0
    detector = DiceDetector(trace.registry).fit(trace.slice(trace.start, split))
    print(name, "context", context_hash(detector))
    gateway = FleetGateway(1)
    runtime = gateway.add_home(name, detector, start=split, policy=POLICY)
    gateway.dispatch([(name, event) for event in trace.slice(split, trace.end)])
    gateway.finish(trace.end)
    for a in gateway.alerts_of(name):
        print(name, a.kind, a.time, a.check, a.cases, sorted(a.devices), a.converged)
    for record in runtime.provenance.records():
        sys.stdout.write(canonical_record_bytes(record).decode("utf-8") + "\n")


replay("golden", read_trace(sys.argv[1]), 24.0)
trace = load_dataset("D_houseA", seed=3, hours=30.0).trace
for device, fault_type, onset_hours in (
    ("beacon_bathroom", FaultType.FAIL_STOP, 25.0),
    ("hue_bedroom", FaultType.STUCK_AT, 29.5),
):
    fault = InjectedFault(device, fault_type, onset_hours * 3600.0)
    trace = apply_fault(trace, fault, np.random.default_rng(3))
replay("D_houseA", trace, 24.0)
print(hash("hue_bedroom"), file=sys.stderr)
"""


def _start(hash_seed: str) -> subprocess.Popen:
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT, GOLDEN_TRACE],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def test_fit_and_replay_ignore_the_hash_seed():
    runs = [_start("0"), _start("1")]  # concurrently: each is ~1 s
    try:
        outputs = [run.communicate(timeout=120) for run in runs]
    finally:
        for run in runs:
            run.kill()
    assert [run.returncode for run in runs] == [0, 0], [e[-2000:] for _, e in outputs]
    (first, first_err), (second, second_err) = outputs
    hashes = [err.splitlines()[-1] for err in (first_err, second_err)]
    assert hashes[0] != hashes[1], "the two runs must hash strings differently"
    # The oracle is only as strong as what the replay exercises.
    text = first.decode("utf-8")
    assert "golden identification" in text
    assert "['beacon_bathroom', 'motion_bathroom']" in text
    assert "D_houseA detection" in text and "transition (<TransitionCase." in text
    assert first == second
