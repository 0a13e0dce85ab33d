"""End-to-end tests for the DiceDetector driver."""

import numpy as np
import pytest

from repro.core import (
    CORRELATION_CHECK,
    TRANSITION_CHECK,
    DiceConfig,
    DiceDetector,
)
from repro.telemetry import MetricsRegistry
from tests.conftest import HOUR, make_cyclic_trace


class TestFitting:
    def test_requires_fit_before_process(self, registry, live_segment):
        detector = DiceDetector(registry)
        with pytest.raises(RuntimeError):
            detector.process(live_segment)

    def test_fit_builds_model(self, fitted_detector):
        model = fitted_detector.model
        assert model.training_windows == 180
        assert len(model.groups) >= 2
        assert model.correlation_degree > 0

    def test_fit_returns_self(self, registry, cyclic_trace):
        detector = DiceDetector(registry)
        assert detector.fit(cyclic_trace) is detector
        assert detector.is_fitted


class TestFaultlessProcessing:
    def test_no_detection_on_clean_segment(self, fitted_detector, live_segment):
        report = fitted_detector.process(live_segment)
        assert not report.detected
        assert report.identifications == []
        assert report.n_windows == 60

    def test_timings_are_recorded(self, fitted_detector, live_segment):
        report = fitted_detector.process(live_segment)
        assert report.timings.windows == 60
        per_window = report.timings.per_window()
        assert set(per_window) == {
            "encoding",
            "correlation_check",
            "transition_check",
            "identification",
        }


class TestOneClock:
    """The batch path returns its stage costs as a plain value and writes
    nothing to the metrics registry: the per-window ``dice_stage_seconds``
    children are the streamed path's clock, and the only one, so the batch
    path does not even create them."""

    def test_process_leaves_the_registry_at_zero(self, small_house):
        metrics = MetricsRegistry()
        trace = small_house.trace
        detector = DiceDetector(trace.registry, metrics=metrics)
        detector.fit(trace.slice(0.0, 72.0 * HOUR))
        report = detector.process(trace.slice(72.0 * HOUR, 82.0 * HOUR))
        timings = report.timings
        assert timings.windows == 600
        assert timings.correlation_cache_hits + timings.correlation_cache_misses > 0

        snap = metrics.snapshot()["metrics"]

        def total(name):
            entry = snap.get(name)
            return sum(row["value"] for row in entry["series"]) if entry else 0

        assert total("dice_windows_total") == 0
        assert total("dice_correlation_cache_hits_total") == 0
        assert total("dice_correlation_cache_misses_total") == 0
        for gone in (
            "dice_stage_seconds",
            "dice_span_seconds",
            "dice_stage_seconds_total",
            "dice_segment_stage_seconds",
        ):
            assert gone not in snap


class TestFaultDetection:
    def test_fail_stop_detected_and_identified(self, fitted_detector, live_segment):
        faulty = live_segment.without_device("motion_kitchen")
        report = fitted_detector.process(faulty)
        assert report.detected
        assert report.first_detection.check == CORRELATION_CHECK
        assert report.first_identification.devices == frozenset({"motion_kitchen"})
        assert "motion_kitchen" in report.identified_devices()

    def test_detection_time_is_window_end(self, fitted_detector, live_segment):
        faulty = live_segment.without_device("motion_kitchen")
        report = fitted_detector.process(faulty)
        first = report.first_detection
        # A whole number (at least one) of 60 s windows after the start.
        windows_ended = round((first.time - live_segment.start) / 60.0)
        assert windows_ended >= 1
        assert first.time == pytest.approx(
            live_segment.start + windows_ended * 60.0
        )

    def test_stuck_binary_detected(self, fitted_detector, live_segment):
        # motion_bedroom stuck active: keeps firing around the clock.
        extra_t = np.arange(live_segment.start, live_segment.end, 30.0)
        faulty = live_segment.with_extra_events(
            extra_t,
            np.full(len(extra_t), 1, dtype=np.int32),
            np.ones(len(extra_t)),
        )
        report = fitted_detector.process(faulty)
        assert report.detected
        assert "motion_bedroom" in report.identified_devices()

    def test_identification_triggered_by_is_recorded(
        self, fitted_detector, live_segment
    ):
        faulty = live_segment.without_device("motion_kitchen")
        report = fitted_detector.process(faulty)
        record = report.first_identification
        assert record is not None
        assert record.check in (CORRELATION_CHECK, TRANSITION_CHECK)
        assert record.windows_used >= 1

    def test_segment_end_flushes_open_session(self, registry, cyclic_trace):
        config = DiceConfig(max_identification_windows=10_000)
        detector = DiceDetector(registry, config).fit(cyclic_trace.slice(0, 3 * HOUR))
        # A short, entirely-anomalous segment: session cannot converge.
        segment = cyclic_trace.slice(3 * HOUR, 3 * HOUR + 300.0)
        faulty = segment.without_device("motion_kitchen")
        report = detector.process(faulty)
        if report.detected and not report.identifications:
            pytest.fail("open identification session was not flushed")


class TestConfigInteraction:
    def test_window_seconds_flows_to_encoder(self, registry, cyclic_trace):
        detector = DiceDetector(registry, DiceConfig(window_seconds=120.0))
        detector.fit(cyclic_trace.slice(0, 2 * HOUR))
        assert detector.model.encoder.window_seconds == 120.0
        assert detector.model.training_windows == 60

    def test_results_are_deterministic(self, registry):
        trace = make_cyclic_trace(registry, hours=4.0)
        training = trace.slice(0, 3 * HOUR)
        segment = trace.slice(3 * HOUR, 4 * HOUR).without_device("motion_kitchen")
        a = DiceDetector(registry).fit(training).process(segment)
        b = DiceDetector(registry).fit(training).process(segment)
        assert [d.time for d in a.detections] == [d.time for d in b.detections]
        assert a.identified_devices() == b.identified_devices()
