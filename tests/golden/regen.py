"""Regenerate the committed golden fixtures.

Run from the repository root:

    PYTHONPATH=src python -m tests.golden.regen

Each fixture is a complete end-to-end scenario pinned into version
control: a 36 h houseA simulation (seed 7) with one fault injected into
the ``fridge`` sensor at hour 26, serialized as a trace CSV (plus its
device registry), and the exact alerts the batch pipeline derives from
it (fit on hours 0-24, process hours 24-36) in an expected-alerts JSON.

Two fault renderings are pinned:

* **fail_stop** (``trace.csv`` / ``expected_alerts.json``) — the fridge
  goes silent; the correlation check catches the missing co-activation;
* **stuck_at** (``trace_stuckat.csv`` / ``expected_alerts_stuckat.json``)
  — the fridge sticks *active* and fires around the clock, the
  non-fail-stop footprint the paper needs the transition/correlation
  interplay for.

Regenerating is only legitimate when the detection semantics change on
purpose; the diff of the expected-alerts JSON then documents precisely
what moved, and the reviewer signs off on it like any other behavioural
change.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from repro.core import DiceDetector
from repro.datasets import load_dataset
from repro.datasets.io import write_trace
from repro.faults import FaultType, InjectedFault, apply_fault

HERE = os.path.dirname(os.path.abspath(__file__))

DATASET = "houseA"
SEED = 7
HOURS = 36.0
TRAIN_HOURS = 24.0
FAULT_DEVICE = "fridge"
FAULT_ONSET_HOURS = 26.0


@dataclass(frozen=True)
class GoldenFixture:
    """One pinned end-to-end scenario."""

    fault_type: FaultType
    trace_filename: str
    expected_filename: str

    @property
    def trace_csv(self) -> str:
        return os.path.join(HERE, self.trace_filename)

    @property
    def expected_json(self) -> str:
        return os.path.join(HERE, self.expected_filename)


FIXTURES = (
    GoldenFixture(FaultType.FAIL_STOP, "trace.csv", "expected_alerts.json"),
    GoldenFixture(
        FaultType.STUCK_AT, "trace_stuckat.csv", "expected_alerts_stuckat.json"
    ),
)

# Legacy aliases for the original single-fixture layout.
TRACE_CSV = FIXTURES[0].trace_csv
EXPECTED_JSON = FIXTURES[0].expected_json

# -- markov-backend golden ----------------------------------------------- #
# The fail-stop fixture replayed through the Markov backend.  A per-device
# transition chain has no cross-device context, so a fail-stopped fridge —
# which DICE's correlation check catches (see expected_alerts.json) —
# produces *no* novel transitions and the pinned alert list is empty.
# The fixture still bites: it pins the fitted model's fingerprint and
# content hash on the committed trace (any encoding or chain-counting
# drift shows as a diff) and pins that the backend raises no false
# positives on the healthy remainder of the stream.
MARKOV_EXPECTED_JSON = os.path.join(HERE, "expected_alerts_markov.json")

# -- streaming / explain golden ----------------------------------------- #
# A third pinned artifact: the evidence record ``repro explain`` renders
# for the first detection when the committed fail-stop trace is replayed
# through the CLI gateway.  The supervisor thresholds are effectively
# disabled because the simulated live segment is sparse (tens of events
# over 12 h) — the default policy would quarantine every device and the
# run would yield only health alerts.
EXPLAIN_JSON = os.path.join(HERE, "expected_explain.json")
EXPLAIN_SILENCE = 1_000_000.0
EXPLAIN_QUARANTINE = 2_000_000.0


def explain_stream_args(provenance_out: str, *extra: str) -> list:
    """CLI argv replaying the committed trace with provenance capture —
    exactly what the CI explain-smoke job runs."""
    return [
        "stream",
        DATASET,
        "--input-csv",
        TRACE_CSV,
        "--hours",
        str(HOURS),
        "--train-hours",
        str(TRAIN_HOURS),
        "--silence",
        str(EXPLAIN_SILENCE),
        "--quarantine",
        str(EXPLAIN_QUARANTINE),
        "--provenance-out",
        provenance_out,
        *extra,
    ]


def run_explain_stream(provenance_out: str, *extra: str) -> int:
    from repro.cli import main as cli_main

    return cli_main(explain_stream_args(provenance_out, *extra))


def read_provenance_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def first_detection(records: list) -> dict:
    for record in records:
        if record["alert"]["kind"] == "detection":
            return record
    raise ValueError("no detection record in the provenance stream")


def explain_document_bytes(record: dict) -> bytes:
    """Byte-exact ``repro explain <id> --json`` output (newline included)."""
    return (json.dumps(record, indent=2, sort_keys=True) + "\n").encode("utf-8")


def build_trace(fixture: GoldenFixture = FIXTURES[0]):
    """The scenario: simulated houseA with a live-phase device fault."""
    dataset = load_dataset(DATASET, seed=SEED, hours=HOURS)
    return apply_fault(
        dataset.trace,
        InjectedFault(FAULT_DEVICE, fixture.fault_type, FAULT_ONSET_HOURS * 3600.0),
        np.random.default_rng(SEED),
    )


def run_pipeline(trace):
    """Fit on the training prefix, process the live suffix."""
    split = TRAIN_HOURS * 3600.0
    detector = DiceDetector(trace.registry).fit(trace.slice(0.0, split))
    return detector.process(trace.slice(split, trace.end))


def report_as_json(report, fixture: GoldenFixture = FIXTURES[0]) -> dict:
    def window(record) -> int:
        # An alert's time is the end of the window that raised it.
        return round((record.time - report.start) / report.window_seconds) - 1

    return {
        "scenario": {
            "dataset": DATASET,
            "seed": SEED,
            "hours": HOURS,
            "train_hours": TRAIN_HOURS,
            "fault": {
                "type": fixture.fault_type.value,
                "device": FAULT_DEVICE,
                "onset_hours": FAULT_ONSET_HOURS,
            },
        },
        "n_windows": report.n_windows,
        "window_seconds": report.window_seconds,
        "detections": [
            {
                "window": window(r),
                "time": r.time,
                "check": r.check,
                "cases": [case.value for case in r.cases],
            }
            for r in report.detections
        ],
        "identifications": [
            {
                "window": window(r),
                "time": r.time,
                "devices": sorted(r.devices),
                "windows_used": r.windows_used,
                "converged": r.converged,
                "weighted_early": r.weighted_early,
                "triggered_by": r.check,
            }
            for r in report.identifications
        ],
    }


def markov_document() -> dict:
    """The Markov-backend golden document over the committed fail-stop
    trace: fit on hours 0-24, stream hours 24-36 through the online
    runtime, and pin model identity alongside the alerts."""
    from repro.core import create_backend
    from repro.datasets.io import read_trace
    from repro.streaming import OnlineDice

    trace = read_trace(FIXTURES[0].trace_csv)
    split = TRAIN_HOURS * 3600.0
    backend = create_backend("markov", trace.registry).fit(
        trace.slice(0.0, split)
    )
    alerts = OnlineDice(backend, start=split).replay(
        trace.slice(split, trace.end)
    )
    return {
        "scenario": {
            "backend": "markov",
            "dataset": DATASET,
            "seed": SEED,
            "hours": HOURS,
            "train_hours": TRAIN_HOURS,
            "fault": {
                "type": FIXTURES[0].fault_type.value,
                "device": FAULT_DEVICE,
                "onset_hours": FAULT_ONSET_HOURS,
            },
        },
        "model": {
            "fingerprint": {
                "backend": backend.name,
                "num_bits": backend.encoder.layout.num_bits,
                "window_seconds": backend.encoder.window_seconds,
                "num_devices": len(backend.registry),
                "num_chains": len(backend._chains),
            },
            "context_hash": backend.context_hash(),
        },
        "alerts": [
            {
                "kind": a.kind,
                "time": a.time,
                "check": a.check,
                "cases": [case.value for case in a.cases],
                "devices": sorted(a.devices),
                "converged": a.converged,
            }
            for a in alerts
        ],
    }


def markov_document_bytes(document: dict) -> bytes:
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


def regen_markov_golden() -> dict:
    document = markov_document()
    with open(MARKOV_EXPECTED_JSON, "wb") as fh:
        fh.write(markov_document_bytes(document))
    print(
        f"markov: pinned {len(document['alerts'])} alerts, "
        f"context {document['model']['context_hash']}"
    )
    return document


def regen_explain_golden() -> dict:
    """Replay the committed trace through the CLI and pin the first
    detection's evidence record as the explain golden."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        provenance_path = os.path.join(tmp, "provenance.jsonl")
        status = run_explain_stream(provenance_path)
        if status != 0:
            raise RuntimeError(f"explain-golden stream exited {status}")
        records = read_provenance_jsonl(provenance_path)
    record = first_detection(records)
    with open(EXPLAIN_JSON, "wb") as fh:
        fh.write(explain_document_bytes(record))
    print(
        f"explain: pinned detection {record['id']} "
        f"(seq {record['alert']['seq']}, {len(records)} records streamed)"
    )
    return record


def main() -> None:
    for fixture in FIXTURES:
        trace = build_trace(fixture)
        write_trace(trace, fixture.trace_csv)
        document = report_as_json(run_pipeline(trace), fixture)
        with open(fixture.expected_json, "w") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        print(
            f"{fixture.fault_type.value}: wrote {len(trace)} events, "
            f"{len(document['detections'])} detections, "
            f"{len(document['identifications'])} identifications"
        )
    regen_markov_golden()
    regen_explain_golden()


if __name__ == "__main__":
    main()
