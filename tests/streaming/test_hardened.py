"""Tests for the hardened gateway runtime: guard + reorder + supervision.

Includes the headline resilience property: a quarantined-then-recovered
device raises exactly one ``device_silence`` and one ``device_recovered``
alert and no spurious correlation violations, because its bits are masked
out of the correlation check while quarantined.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.core import DiceDetector
from repro.model import (
    DeviceRegistry,
    Event,
    SensorType,
    Trace,
    binary_sensor,
)
from repro.streaming import (
    DUPLICATE,
    NON_FINITE_VALUE,
    TOO_LATE,
    UNKNOWN_DEVICE,
    HardenedOnlineDice,
    OnlineDice,
    SupervisorPolicy,
    restore_runtime,
)


@pytest.fixture
def trio_registry():
    return DeviceRegistry(
        [binary_sensor(n, SensorType.MOTION, "r") for n in ("a", "b", "c")]
    )


def trio_trace(registry, lo, hi, silent=None):
    """All three sensors fire every 30 s; optionally sensor ``b`` goes
    silent over the ``silent=(t0, t1)`` interval (a fail-stop-shaped pipe
    outage)."""
    times, devs, vals = [], [], []
    for t in np.arange(lo, hi, 30.0):
        for d in range(3):
            if silent and d == 1 and silent[0] <= t < silent[1]:
                continue
            times.append(t + d)
            devs.append(d)
            vals.append(1.0)
    return Trace(
        registry,
        np.array(times),
        np.array(devs, dtype=np.int32),
        np.array(vals),
        start=lo,
        end=hi,
    )


@pytest.fixture
def trio_detector(trio_registry):
    return DiceDetector(trio_registry).fit(trio_trace(trio_registry, 0.0, 7200.0))


FAST_POLICY = SupervisorPolicy(silence_seconds=35.0, quarantine_seconds=60.0)


def _canon(alerts):
    """Alert-sequence rendering independent of the process hash seed."""
    return [
        (a.kind, a.time, a.check, a.cases, tuple(sorted(a.devices)), a.converged)
        for a in alerts
    ]


class TestIngestGuarding:
    def test_malformed_events_never_raise(self, trio_detector):
        runtime = HardenedOnlineDice(trio_detector, start=7200.0)
        runtime.ingest(Event(7300.0, "ghost", 1.0))
        runtime.ingest(Event(7301.0, "", 1.0))
        runtime.ingest(Event(7302.0, "a", float("nan")))
        runtime.ingest(Event(float("nan"), "a", 1.0))
        assert runtime.drops.count(UNKNOWN_DEVICE) == 1
        assert runtime.drops.count(NON_FINITE_VALUE) == 1
        assert runtime.drops.total == 4

    def test_garbage_from_known_device_counts_as_error(self, trio_detector):
        runtime = HardenedOnlineDice(
            trio_detector,
            start=7200.0,
            policy=SupervisorPolicy(error_threshold=2),
        )
        alerts = runtime.ingest(Event(7300.0, "a", float("nan")))
        assert alerts == []
        alerts = runtime.ingest(Event(7301.0, "a", float("inf")))
        assert [a.kind for a in alerts] == ["device_errors"]
        assert runtime.supervisor.quarantined == frozenset({"a"})

    def test_too_late_events_counted_not_raised(self, trio_detector):
        runtime = HardenedOnlineDice(
            trio_detector, start=7200.0, lateness_seconds=10.0
        )
        runtime.ingest(Event(8000.0, "a", 1.0))
        runtime.ingest(Event(7200.0, "b", 1.0))  # 790 s late, budget is 10 s
        assert runtime.drops.count(TOO_LATE) == 1


class TestReorderIntegration:
    def test_shuffled_replay_matches_plain_runtime(self, trio_detector, trio_registry):
        live = trio_trace(trio_registry, 7200.0, 10800.0)
        plain = OnlineDice(trio_detector, start=7200.0)
        expected = plain.replay(live)

        events = list(live)
        rng = np.random.default_rng(5)
        arrival = np.array([e.timestamp for e in events])
        arrival += rng.uniform(0.0, 90.0, size=len(events))
        shuffled = [events[int(i)] for i in np.argsort(arrival, kind="stable")]

        hardened = HardenedOnlineDice(
            trio_detector, start=7200.0, lateness_seconds=120.0
        )
        fresh = hardened.ingest_many(shuffled)
        fresh += hardened.finish_stream(live.end)
        assert _canon(fresh) == _canon(expected)
        assert hardened.drops.total == 0

    def test_duplicate_delivery_is_transparent(self, trio_detector, trio_registry):
        live = trio_trace(trio_registry, 7200.0, 10800.0)
        plain = OnlineDice(trio_detector, start=7200.0)
        expected = plain.replay(live)

        doubled = []
        for event in live:
            doubled.append(event)
            doubled.append(event)  # immediate re-delivery
        hardened = HardenedOnlineDice(
            trio_detector, start=7200.0, lateness_seconds=120.0
        )
        fresh = hardened.ingest_many(doubled)
        fresh += hardened.finish_stream(live.end)
        assert _canon(fresh) == _canon(expected)
        assert hardened.drops.count(DUPLICATE) == len(list(live))


class TestQuarantineMasking:
    def test_silence_then_recovery_exact_alerts(self, trio_detector, trio_registry):
        live = trio_trace(trio_registry, 7200.0, 14400.0, silent=(9000.0, 12000.0))
        runtime = HardenedOnlineDice(
            trio_detector, start=7200.0, lateness_seconds=0.0, policy=FAST_POLICY
        )
        alerts = runtime.replay(live)
        kinds = [a.kind for a in alerts]
        assert kinds.count("device_silence") == 1
        assert kinds.count("device_recovered") == 1
        # The masked correlation check keeps the dead sensor from flooding
        # the detector: no detections, no identifications.
        assert kinds.count("detection") == 0
        assert kinds.count("identification") == 0
        silence = next(a for a in alerts if a.kind == "device_silence")
        recovered = next(a for a in alerts if a.kind == "device_recovered")
        assert silence.devices == frozenset({"b"})
        assert recovered.devices == frozenset({"b"})
        assert silence.time < recovered.time
        assert runtime.supervisor.quarantined == frozenset()

    def test_without_supervision_dead_sensor_floods(self, trio_detector, trio_registry):
        """Sanity: the masking is load-bearing — the plain runtime drowns."""
        live = trio_trace(trio_registry, 7200.0, 14400.0, silent=(9000.0, 12000.0))
        plain = OnlineDice(trio_detector, start=7200.0)
        alerts = plain.replay(live)
        assert any(a.kind == "detection" for a in alerts)

    def test_unquarantined_faults_still_detected(self, trio_detector, trio_registry):
        """A sensor that keeps chattering wrongly (not silent) is NOT
        quarantined, and detection still fires."""
        live = trio_trace(trio_registry, 7200.0, 10800.0)
        # sensor b speaks but a brand-new fourth pattern appears: a goes
        # quiet while still b+c fire -> never-seen state set.
        events = [e for e in live if not (e.device_id == "a" and e.timestamp >= 9000.0)]
        runtime = HardenedOnlineDice(
            trio_detector,
            start=7200.0,
            lateness_seconds=0.0,
            policy=SupervisorPolicy(silence_seconds=3000.0, quarantine_seconds=6000.0),
        )
        fresh = runtime.ingest_many(events)
        fresh += runtime.finish_stream(live.end)
        assert any(a.kind == "detection" for a in fresh)


class TestHealthAlerts:
    def test_health_counts_the_alerts_its_calls_returned(
        self, trio_detector, trio_registry
    ):
        live = trio_trace(trio_registry, 7200.0, 16000.0, silent=(9000.0, 12000.0))
        # Two NaN readings quarantine c for errors; b's silence then raises
        # detections, identifications, device_silence and device_recovered.
        garbage = [Event(7210.0, "c", float("nan")), Event(7211.0, "c", float("nan"))]
        events = sorted(list(live) + garbage, key=lambda e: e.timestamp)
        policy = SupervisorPolicy(
            silence_seconds=600.0, quarantine_seconds=1200.0, error_threshold=2
        )
        runtime = HardenedOnlineDice(
            trio_detector, start=7200.0, lateness_seconds=0.0, policy=policy
        )
        fresh = runtime.ingest_many(events)
        fresh += runtime.finish_stream(live.end)
        counts = Counter(alert.kind for alert in fresh)
        assert set(counts) == {
            "detection", "identification",
            "device_errors", "device_silence", "device_recovered",
        }
        # Same counts, keyed in the order each kind was first raised.
        assert list(runtime.health()["alerts"].items()) == list(counts.items())

    def test_restore_counts_only_the_alerts_it_raises(
        self, trio_detector, trio_registry
    ):
        live = trio_trace(trio_registry, 7200.0, 16000.0, silent=(9000.0, 12000.0))
        events = list(live)
        policy = SupervisorPolicy(silence_seconds=600.0, quarantine_seconds=1200.0)
        first = HardenedOnlineDice(
            trio_detector, start=7200.0, lateness_seconds=0.0, policy=policy
        )
        # Cut while b is silent: detections on both sides of the restore.
        cut = next(i for i, e in enumerate(events) if e.timestamp >= 9600.0)
        assert first.ingest_many(events[:cut])
        snapshot = json.loads(json.dumps(first.checkpoint()))
        resumed = restore_runtime(trio_detector, snapshot)
        assert resumed.health()["alerts"] == {}
        tail = resumed.ingest_many(events[cut:])
        tail += resumed.finish_stream(live.end)
        counts = Counter(alert.kind for alert in tail)
        assert {"detection", "device_silence", "device_recovered"} <= set(counts)
        assert list(resumed.health()["alerts"].items()) == list(counts.items())
