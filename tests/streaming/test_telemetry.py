"""Gateway telemetry: parity, health surface, logs, checkpointed counters."""

import io
import json

import numpy as np
import pytest

from repro import telemetry
from repro.core import DiceDetector
from repro.faults import PipeFaultInjector, PipeFaultSpec, PipeFaultType
from repro.model import Event
from repro.streaming import (
    DeviceStatus,
    DeviceSupervisor,
    HardenedOnlineDice,
    SupervisorPolicy,
    restore_runtime,
)
from repro.streaming.checkpoint import CHECKPOINT_VERSION
from repro.streaming.supervisor import TRANSITIONS_TOTAL
from tests.conftest import HOUR

POLICY = SupervisorPolicy(silence_seconds=400.0, quarantine_seconds=800.0)


def _fit(registry, cyclic_trace, metrics):
    training = cyclic_trace.slice(0.0, 3.0 * HOUR)
    return DiceDetector(registry, metrics=metrics).fit(training)


def _runtime(detector):
    return HardenedOnlineDice(
        detector, start=3.0 * HOUR, lateness_seconds=120.0, policy=POLICY
    )


def _adversarial(events, seed=7):
    injector = PipeFaultInjector(
        np.random.default_rng(seed),
        [
            PipeFaultSpec(PipeFaultType.REORDER, max_delay_seconds=90.0),
            PipeFaultSpec(PipeFaultType.DUPLICATE, rate=0.1, max_delay_seconds=90.0),
            PipeFaultSpec(PipeFaultType.CORRUPT_VALUE, rate=0.02),
        ],
    )
    return injector.apply(events)


def _canon(alerts):
    return [
        (a.kind, a.time, a.check, a.cases, tuple(sorted(a.devices)), a.converged)
        for a in alerts
    ]


class TestParity:
    def test_telemetry_changes_no_output(self, registry, cyclic_trace):
        """The detection outcome must be identical with metrics on and off —
        instrumentation that changes behaviour is a bug, not overhead."""
        events = _adversarial(list(cyclic_trace.slice(3.0 * HOUR, 4.0 * HOUR)))
        end = cyclic_trace.end

        on = _runtime(_fit(registry, cyclic_trace, telemetry.MetricsRegistry()))
        off = _runtime(_fit(registry, cyclic_trace, telemetry.NULL_REGISTRY))
        alerts_on = on.ingest_many(events) + on.finish_stream(end)
        alerts_off = off.ingest_many(events) + off.finish_stream(end)

        assert _canon(alerts_on) == _canon(alerts_off)
        assert on.drops.summary() == off.drops.summary()
        # And the off side recorded nothing at all.
        assert off.metrics.snapshot()["metrics"] == {}


class TestStreamingMetrics:
    @pytest.fixture
    def replayed(self, registry, cyclic_trace):
        detector = _fit(registry, cyclic_trace, telemetry.MetricsRegistry())
        runtime = _runtime(detector)
        events = _adversarial(list(cyclic_trace.slice(3.0 * HOUR, 4.0 * HOUR)))
        runtime.ingest_many(events)
        runtime.finish_stream(cyclic_trace.end)
        return runtime

    def test_core_families_are_populated(self, replayed):
        snap = replayed.metrics.snapshot()["metrics"]
        windows = snap["dice_windows_total"]["series"][0]["value"]
        assert windows == 60  # one hour of 60 s windows
        hist = snap["dice_stage_seconds"]["series"]
        by_stage = {row["labels"]["stage"]: row["count"] for row in hist}
        assert by_stage["correlation"] == 60
        assert by_stage["transition"] == 60

    def test_each_window_is_timed_once(self, replayed):
        # One clock: the stage histogram is the only per-window timer.  The
        # correlation check times every window the runtime counts; this
        # replay raises no detection, so identification never runs.
        snap = replayed.metrics.snapshot()["metrics"]
        assert "dice_span_seconds" not in snap
        assert replayed.alerts == []
        windows = snap["dice_windows_total"]["series"][0]["value"]
        by_stage = {
            row["labels"]["stage"]: row["count"]
            for row in snap["dice_stage_seconds"]["series"]
        }
        assert by_stage["correlation"] == windows == 60
        assert by_stage["identification"] == 0

    def test_identification_times_the_windows_its_sessions_covered(
        self, registry, cyclic_trace
    ):
        # The kitchen motion sensor fails stop mid-hour: each detection
        # opens a session, which runs until the identification that closes
        # it (the last one at the end of the stream).
        runtime = _runtime(_fit(registry, cyclic_trace, telemetry.MetricsRegistry()))
        events = [
            e
            for e in cyclic_trace.slice(3.0 * HOUR, 4.0 * HOUR)
            if not (e.device_id == "motion_kitchen" and e.timestamp > 3.4 * HOUR)
        ]
        runtime.ingest_many(events)
        runtime.finish_stream(cyclic_trace.end)
        sessions = [
            a for a in runtime.alerts if a.kind in ("detection", "identification")
        ]
        assert [a.kind for a in sessions] == ["detection", "identification"] * (
            len(sessions) // 2
        )
        assert sessions
        covered = sum(
            round((ident.time - det.time) / 60.0) + 1
            for det, ident in zip(sessions[::2], sessions[1::2])
        )
        snap = runtime.metrics.snapshot()["metrics"]
        by_stage = {
            row["labels"]["stage"]: row["count"]
            for row in snap["dice_stage_seconds"]["series"]
        }
        assert by_stage["correlation"] == 60
        assert 0 < by_stage["identification"] == covered < 60

    def test_stage_clock_exports_before_the_first_window(
        self, registry, cyclic_trace
    ):
        # A served home lists the stage histogram from the start: building
        # the runtime resolves the clock that the batch path never touches.
        runtime = _runtime(_fit(registry, cyclic_trace, telemetry.MetricsRegistry()))
        rows = runtime.metrics.snapshot()["metrics"]["dice_stage_seconds"]["series"]
        assert {row["labels"]["stage"] for row in rows} == {
            "correlation", "transition", "identification"
        }
        assert all(row["count"] == 0 for row in rows)

    def test_drop_reasons_are_preseeded(self, replayed):
        rows = replayed.metrics.snapshot()["metrics"]["dice_ingest_dropped_total"]
        reasons = {row["labels"]["reason"]: row["value"] for row in rows["series"]}
        # Every reason exports (zeros included) and totals match the log.
        assert reasons["non_finite_value"] >= 1
        assert sum(reasons.values()) == replayed.drops.total
        assert set(replayed.drops.summary()) <= set(reasons)

    def test_supervisor_gauges_cover_every_state(self, replayed):
        rows = replayed.metrics.snapshot()["metrics"]["dice_supervisor_devices"]
        states = {row["labels"]["state"] for row in rows["series"]}
        assert states == {s.value for s in DeviceStatus}

    def test_health_surface(self, replayed):
        health = replayed.health()
        json.dumps(health)  # must be JSON-serializable as-is
        assert set(health["devices"]) == {
            "motion_kitchen", "motion_bedroom", "temp_kitchen"
        }
        assert sum(health["supervisor_states"].values()) == 3
        assert health["watermark"] is not None
        assert health["reorder_pending"] == 0
        assert health["drops"]["total"] == replayed.drops.total
        assert health["reorder_capacity"] == 4096

    def test_health_before_any_event(self, registry, cyclic_trace):
        runtime = _runtime(_fit(registry, cyclic_trace, telemetry.MetricsRegistry()))
        health = runtime.health()
        assert health["watermark"] is None
        assert health["watermark_lag_seconds"] == 0.0
        assert health["alerts"] == {}


class TestSupervisorRecords:
    @pytest.fixture
    def captured(self):
        stream = io.StringIO()
        previous = telemetry.configure(
            level="debug", format="human", stream=stream, timestamps=False
        )
        try:
            yield stream
        finally:
            telemetry.configure(
                level=previous.level,
                format=previous.format,
                stream=previous.stream,
                timestamps=previous.timestamps,
            )

    def test_quarantine_logs_and_counts(self, registry, captured):
        reg = telemetry.MetricsRegistry()
        sup = DeviceSupervisor(registry, POLICY, metrics=reg)
        sup.check_silence(3000.0)  # quarantines every watched sensor
        out = captured.getvalue()
        assert (
            "WARNING repro.streaming.supervisor device_quarantined "
            "device=motion_kitchen previous=healthy reason=silence" in out
        )
        rows = reg.snapshot()["metrics"][TRANSITIONS_TOTAL]["series"]
        edges = {(r["labels"]["to"], r["labels"]["reason"]): r["value"] for r in rows}
        assert edges[("quarantined", "silence")] == 3

    def test_recovery_logs_at_info(self, registry, captured):
        sup = DeviceSupervisor(registry, POLICY, metrics=telemetry.MetricsRegistry())
        sup.check_silence(3000.0)
        sup.observe(Event(3100.0, "motion_kitchen", 1.0))
        assert "INFO repro.streaming.supervisor device_recovered" in (
            captured.getvalue()
        )


class TestCheckpointedCounters:
    def _replayed_runtime(self, registry, cyclic_trace):
        detector = _fit(registry, cyclic_trace, telemetry.MetricsRegistry())
        runtime = _runtime(detector)
        runtime.ingest_many(list(cyclic_trace.slice(3.0 * HOUR, 4.0 * HOUR)))
        runtime.finish_stream(cyclic_trace.end)
        return runtime

    def test_v2_restores_monotonic_counters(self, registry, cyclic_trace):
        runtime = self._replayed_runtime(registry, cyclic_trace)
        windows = runtime.metrics.snapshot()["metrics"]["dice_windows_total"]
        state = json.loads(json.dumps(runtime.checkpoint()))
        assert state["version"] == CHECKPOINT_VERSION
        assert "telemetry" in state
        # Counters only: gauges/histograms are process-local.
        kinds = {e["type"] for e in state["telemetry"]["metrics"].values()}
        assert kinds == {"counter"}

        fresh = _fit(registry, cyclic_trace, telemetry.MetricsRegistry())
        resumed = restore_runtime(fresh, state)
        restored = resumed.metrics.snapshot()["metrics"]["dice_windows_total"]
        assert restored["series"] == windows["series"]

    def test_disabled_metrics_checkpoint_has_no_telemetry(
        self, registry, cyclic_trace
    ):
        detector = _fit(registry, cyclic_trace, telemetry.NULL_REGISTRY)
        runtime = _runtime(detector)
        assert "telemetry" not in runtime.checkpoint()
