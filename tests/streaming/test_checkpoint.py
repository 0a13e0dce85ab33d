"""Checkpoint/restore determinism for the hardened gateway runtime.

The headline property: for seeded adversarial traces,
``restore(checkpoint(mid-stream)) + replay tail`` produces a byte-identical
alert sequence to an uninterrupted run — including with events pending in
the reorder buffer, an identification session open, and devices quarantined
at the moment of the crash.
"""

import json
import random

import numpy as np
import pytest

from repro.core import DiceDetector
from repro.faults import PipeFaultInjector, PipeFaultSpec, PipeFaultType
from repro.fleet import MANIFEST_NAME, FleetGateway, load_fleet_manifest
from repro.streaming import (
    CheckpointError,
    HardenedOnlineDice,
    SupervisorPolicy,
    restore_runtime,
)
from tests.conftest import HOUR


@pytest.fixture
def detector(registry, cyclic_trace):
    return DiceDetector(registry).fit(cyclic_trace.slice(0.0, 3.0 * HOUR))


@pytest.fixture
def live_events(cyclic_trace):
    return list(cyclic_trace.slice(3.0 * HOUR, 4.0 * HOUR))


def _runtime(detector, start):
    return HardenedOnlineDice(
        detector,
        start=start,
        lateness_seconds=120.0,
        policy=SupervisorPolicy(silence_seconds=400.0, quarantine_seconds=800.0),
    )


def _canon(alerts):
    """Byte rendering of an alert sequence that is independent of the
    process hash seed (frozenset iteration order is not)."""
    return repr(
        [
            (a.kind, a.time, a.check, a.cases, tuple(sorted(a.devices)), a.converged)
            for a in alerts
        ]
    )


def _adversarial(events, seed):
    injector = PipeFaultInjector(
        np.random.default_rng(seed),
        [
            PipeFaultSpec(PipeFaultType.REORDER, max_delay_seconds=90.0),
            PipeFaultSpec(PipeFaultType.DUPLICATE, rate=0.1, max_delay_seconds=90.0),
            PipeFaultSpec(PipeFaultType.CORRUPT_VALUE, rate=0.02),
        ],
    )
    return injector.apply(events)


class TestRoundTripDeterminism:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_resume_equals_uninterrupted(self, detector, live_events, cyclic_trace, seed):
        events = _adversarial(live_events, seed)
        start = 3.0 * HOUR
        end = cyclic_trace.end

        uninterrupted = _runtime(detector, start)
        expected = uninterrupted.ingest_many(events)
        expected += uninterrupted.finish_stream(end)

        cut = len(events) // 2
        first = _runtime(detector, start)
        head = first.ingest_many(events[:cut])
        # Force a genuine serialize -> parse cycle, as a crash would.
        snapshot = json.loads(json.dumps(first.checkpoint()))
        resumed = restore_runtime(detector, snapshot)
        tail = resumed.ingest_many(events[cut:])
        tail += resumed.finish_stream(end)

        assert head + tail == expected
        assert _canon(head + tail) == _canon(expected)
        assert resumed.drops.summary() == uninterrupted.drops.summary()

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_resume_equals_uninterrupted_at_random_cuts(
        self, detector, live_events, cyclic_trace, seed
    ):
        # Same property as above, but the crash lands at a seeded-random
        # event index rather than the midpoint: the cut may fall inside a
        # window, inside the reorder buffer's lateness horizon, or right
        # before a duplicate — none of which may show in the alerts.
        events = _adversarial(live_events, seed)
        cut = random.Random(seed).randrange(1, len(events))
        start, end = 3.0 * HOUR, cyclic_trace.end

        uninterrupted = _runtime(detector, start)
        expected = uninterrupted.ingest_many(events)
        expected += uninterrupted.finish_stream(end)

        first = _runtime(detector, start)
        head = first.ingest_many(events[:cut])
        snapshot = json.loads(json.dumps(first.checkpoint()))
        resumed = restore_runtime(detector, snapshot)
        tail = resumed.ingest_many(events[cut:])
        tail += resumed.finish_stream(end)

        assert _canon(head + tail) == _canon(expected), f"cut at {cut}"
        assert resumed.drops.summary() == uninterrupted.drops.summary()

    def test_counter_totals_survive_restart(self, registry, cyclic_trace):
        # Monotone telemetry totals are part of the checkpoint (schema v2):
        # after a crash/restore cycle the counters must continue from where
        # they left off, not restart at the tail's contribution.  Each
        # scenario gets its own detector + registry so totals are isolated.
        from repro import telemetry
        from repro.streaming.runtime import ALERTS_TOTAL

        def fresh_runtime():
            det = DiceDetector(
                registry, metrics=telemetry.MetricsRegistry()
            ).fit(cyclic_trace.slice(0.0, 3.0 * HOUR))
            return _runtime(det, 3.0 * HOUR), det

        def alerts_total(runtime):
            families = runtime.metrics.snapshot()["metrics"]
            entry = families.get(ALERTS_TOTAL)
            return sum(row["value"] for row in entry["series"]) if entry else 0.0

        events = _adversarial(list(cyclic_trace.slice(3.0 * HOUR, 4.0 * HOUR)), 7)
        full, _ = fresh_runtime()
        expected = full.ingest_many(events)
        expected += full.finish_stream(cyclic_trace.end)
        assert alerts_total(full) == float(len(full.alerts))

        cut = random.Random(7).randrange(1, len(events))
        first, det = fresh_runtime()
        first.ingest_many(events[:cut])
        snapshot = json.loads(json.dumps(first.checkpoint()))
        resumed = restore_runtime(det, snapshot)
        resumed.ingest_many(events[cut:])
        resumed.finish_stream(cyclic_trace.end)
        assert alerts_total(resumed) == alerts_total(full)

    def test_checkpoint_preserves_open_session(self, small_house):
        """Cut the stream while an identification session is open and check
        the session survives serialization.  The tiny cyclic fixture resolves
        identifications within one window, so this uses the houseA deployment,
        where a fridge fail-stop keeps the probable set ambiguous for a while.
        """
        trace = small_house.trace
        detector = DiceDetector(trace.registry).fit(trace.slice(0, 72 * HOUR))
        segment = trace.slice(102 * HOUR, 110 * HOUR)
        faulty = [e for e in segment if e.device_id != "fridge"]

        def runtime():
            # Supervision horizons far beyond the segment: the fail-stopped
            # fridge must stay visible so the session stays open.
            return HardenedOnlineDice(
                detector,
                start=segment.start,
                lateness_seconds=120.0,
                policy=SupervisorPolicy(
                    silence_seconds=24 * HOUR, quarantine_seconds=48 * HOUR
                ),
            )

        uninterrupted = runtime()
        expected = uninterrupted.ingest_many(faulty)
        expected += uninterrupted.finish_stream(segment.end)
        assert any(a.kind == "detection" for a in expected)

        # Cut at the first point where a session is open between events.
        first = runtime()
        head = []
        cut = None
        for i, event in enumerate(faulty):
            head += first.ingest(event)
            if first._session is not None:
                cut = i + 1
                break
        assert cut is not None
        snapshot = json.loads(json.dumps(first.checkpoint()))
        assert snapshot["runtime"]["session"] is not None

        resumed = restore_runtime(detector, snapshot)
        tail = resumed.ingest_many(faulty[cut:])
        tail += resumed.finish_stream(segment.end)
        assert head + tail == expected
        assert _canon(head + tail) == _canon(expected)


HOME = "home"


def _save_one_home(runtime, directory):
    """Write *runtime*'s snapshot the way it reaches disk: as the one home
    of a fleet manifest.  Returns the manifest path."""
    gateway = FleetGateway(1)
    gateway.add_runtime(HOME, runtime)
    gateway.save_checkpoint(directory)
    return directory / MANIFEST_NAME


def _load_one_home(directory):
    return load_fleet_manifest(directory)["homes"][HOME]


class TestCheckpointFile:
    def test_save_and_restore_from_file(self, detector, live_events, tmp_path):
        runtime = _runtime(detector, 3.0 * HOUR)
        runtime.ingest_many(live_events[: len(live_events) // 3])
        path = _save_one_home(runtime, tmp_path)
        assert path.exists()
        resumed = restore_runtime(detector, _load_one_home(tmp_path))
        assert resumed.state_dict() == runtime.state_dict()

    def test_version_mismatch_rejected(self, detector, live_events, tmp_path):
        runtime = _runtime(detector, 3.0 * HOUR)
        _save_one_home(runtime, tmp_path)
        state = _load_one_home(tmp_path)
        # Only the current version restores; every earlier one is refused.
        for version in (1, 2, 3, 4, 5, 6, 999):
            state["version"] = version
            with pytest.raises(CheckpointError, match=f"version {version} "):
                restore_runtime(detector, state)

    def test_model_mismatch_rejected(self, detector, registry, tmp_path):
        runtime = _runtime(detector, 0.0)
        state = runtime.checkpoint()
        state["context"] = "0" * 32
        with pytest.raises(CheckpointError):
            restore_runtime(detector, state)

    def test_restore_refuses_content_drift(self):
        # A refresh that adds no group changes only counts: the target
        # below has the snapshot model's bit, group and device counts and
        # window length, and differs only in one more observation of
        # group 0.  Re-applying the snapshot's refresh history onto such a
        # detector would count that history twice, so restore must refuse.
        from repro.datasets import load_dataset

        trace = load_dataset("houseA", seed=3, hours=31.0).trace
        split = trace.start + 30.0 * HOUR

        def fit():
            return DiceDetector(trace.registry).fit(trace.slice(trace.start, split))

        runtime = HardenedOnlineDice(fit(), start=split)
        runtime.ingest_many(list(trace.slice(split, trace.end)))
        snapshot = json.loads(json.dumps(runtime.checkpoint()))
        drifted = fit()
        groups = drifted.model.groups
        num_groups = len(groups)
        groups.add(groups.mask_of(0))
        assert len(groups) == num_groups
        with pytest.raises(CheckpointError, match="different model"):
            restore_runtime(drifted, snapshot)
        restore_runtime(fit(), snapshot)  # an exact refit still restores

    def test_not_a_checkpoint_rejected(self, detector):
        with pytest.raises(CheckpointError):
            restore_runtime(detector, {"hello": "world"})

    def test_missing_file_raises_checkpoint_error_naming_path(self, tmp_path):
        path = tmp_path / "nowhere" / MANIFEST_NAME
        with pytest.raises(CheckpointError, match="cannot read fleet manifest") as exc:
            _load_one_home(tmp_path / "nowhere")
        assert str(path) in str(exc.value)

    def test_corrupt_file_raises_checkpoint_error_naming_path(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text("{this is not json")
        with pytest.raises(CheckpointError, match="corrupt fleet manifest") as exc:
            _load_one_home(tmp_path)
        assert str(path) in str(exc.value)

    def test_v4_checkpoint_round_trips_provenance(
        self, detector, live_events, tmp_path
    ):
        from repro.streaming.checkpoint import CHECKPOINT_VERSION
        from repro.telemetry.provenance import canonical_record_bytes

        runtime = _runtime(detector, 3.0 * HOUR)
        runtime.ingest_many(_adversarial(live_events, seed=5))
        assert runtime.provenance.records(), "scenario must record evidence"
        _save_one_home(runtime, tmp_path)
        state = _load_one_home(tmp_path)
        assert state["version"] == CHECKPOINT_VERSION == 7
        assert state["runtime"]["provenance"] is not None
        resumed = restore_runtime(detector, _load_one_home(tmp_path))
        assert [
            canonical_record_bytes(r) for r in resumed.provenance.records()
        ] == [canonical_record_bytes(r) for r in runtime.provenance.records()]
        assert resumed.provenance.seq == runtime.provenance.seq
        assert resumed.provenance.chain == runtime.provenance.chain

    def test_truncated_file_raises_checkpoint_error(
        self, detector, live_events, tmp_path
    ):
        # A crash mid-write without the atomic rename would leave half a
        # JSON document; loading it must be one actionable error, not a
        # JSONDecodeError traceback.
        runtime = _runtime(detector, 3.0 * HOUR)
        runtime.ingest_many(live_events[: len(live_events) // 3])
        path = _save_one_home(runtime, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt fleet manifest"):
            _load_one_home(tmp_path)
