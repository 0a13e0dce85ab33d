"""Tests for the Table 2.1 comparator backends."""

import numpy as np
import pytest

from repro.core import available_backends, create_backend
from repro.core.backend import _SegmentWindows
from repro.faults import inject_fail_stop, inject_spike, inject_stuck_at
from tests.conftest import HOUR


@pytest.fixture(scope="module")
def house(small_house):
    trace = small_house.trace
    training = trace.slice(0.0, 72 * HOUR)
    # Day 3, 18:00-24:00: covers dinner preparation, so kitchen sensors
    # are active after the fault onsets used below.
    segment = trace.slice(90 * HOUR, 96 * HOUR)
    return trace, training, segment


def fitted(name, trace, training):
    return create_backend(name, trace.registry).fit(training)


def identified(alerts):
    """The union of the devices the identification alerts name."""
    devices = set()
    for alert in alerts:
        if alert.kind == "identification":
            devices |= alert.devices
    return devices


class TestRegistry:
    def test_all_baselines_registered(self):
        assert available_backends() == (
            "clean-lcs",
            "correlation-only",
            "dice",
            "ensemble",
            "majority-vote",
            "markov",
            "markov-only",
            "timeseries-ar",
        )


class TestCorrelationOnly:
    def test_clean_segment_quiet(self, house):
        trace, training, segment = house
        detector = fitted("correlation-only", trace, training)
        assert not detector.process_batch(segment)

    def test_fail_stop_of_cofiring_sensor_detected(self, house):
        trace, training, segment = house
        detector = fitted("correlation-only", trace, training)
        faulty = inject_fail_stop(segment, "fridge", segment.start + HOUR)
        assert detector.process_batch(faulty)

    def test_requires_fit(self, house):
        trace, training, segment = house
        with pytest.raises(RuntimeError):
            create_backend("correlation-only", trace.registry).process_batch(
                segment
            )


class TestMarkovOnly:
    def test_clean_segment_mostly_quiet(self, house):
        trace, training, segment = house
        detector = fitted("markov-only", trace, training)
        windowed = detector.encode_window(segment)
        windows = _SegmentWindows(windowed)
        violating = sum(
            detector.observe_window(windows[i]).violation
            for i in range(len(windowed))
        )
        assert violating <= 2

    def test_weaker_than_dice_on_stuck_at(self, house):
        """The nearest-group fallback hides correlation damage, so the
        Markov-only ablation must not beat full DICE on a stuck-at fault —
        exactly the Table 2.1 story for transition-only monitors."""
        trace, training, segment = house
        rng = np.random.default_rng(0)
        faulty = inject_stuck_at(segment, "fridge", segment.start + HOUR, rng)
        dice = fitted("dice", trace, training)
        markov = fitted("markov-only", trace, training)
        dice_detected = bool(dice.process_batch(faulty))
        markov_detected = bool(markov.process_batch(faulty))
        assert dice_detected
        assert markov_detected <= dice_detected


class TestMajorityVote:
    def test_needs_redundant_peers(self, house):
        trace, training, segment = house
        detector = fitted("majority-vote", trace, training)
        # houseA has few same-type same-room sensors; the kitchen DOOR
        # sensors fall back to house-wide peers.
        assert all(
            peers for peers in detector._peers.values()
        )

    def test_stuck_active_sensor_flagged(self, house):
        trace, training, segment = house
        detector = fitted("majority-vote", trace, training)
        rng = np.random.default_rng(0)
        faulty = inject_stuck_at(segment, "fridge", segment.start + HOUR, rng)
        assert "fridge" in identified(detector.process_batch(faulty))


class TestTimeSeriesAR:
    @pytest.fixture(scope="class")
    def testbed(self, small_testbed):
        trace = small_testbed.trace
        return (
            trace,
            trace.slice(0.0, 72 * HOUR),
            trace.slice(80 * HOUR, 86 * HOUR),
        )

    def test_spike_detected(self, testbed):
        trace, training, segment = testbed
        detector = fitted("timeseries-ar", trace, training)
        rng = np.random.default_rng(0)
        faulty = inject_spike(segment, "t_kitchen", segment.start + 2 * HOUR, rng)
        assert "t_kitchen" in identified(detector.process_batch(faulty))

    def test_fail_stop_invisible_by_design(self, testbed):
        trace, training, segment = testbed
        detector = fitted("timeseries-ar", trace, training)
        faulty = inject_fail_stop(segment, "t_kitchen", segment.start + HOUR)
        assert "t_kitchen" not in identified(detector.process_batch(faulty))

    def test_binary_only_home_has_no_models(self, house):
        trace, training, segment = house
        detector = fitted("timeseries-ar", trace, training)
        assert detector._models == {}


class TestLcsClean:
    def test_partners_learned(self, house):
        trace, training, segment = house
        detector = fitted("clean-lcs", trace, training)
        assert detector._partners  # kitchen sensors co-activate

    def test_fail_stop_of_partnered_sensor(self, house):
        trace, training, _ = house
        detector = fitted("clean-lcs", trace, training)
        # Long faulty stretch so co-activation statistics are meaningful.
        segment = trace.slice(78 * HOUR, 102 * HOUR)
        victims = [d for d in detector._partners if d in ("fridge", "cups_cupboard")]
        if not victims:
            pytest.skip("no partnered kitchen sensor in this seed")
        victim = victims[0]
        faulty = segment.without_device(victim)
        assert victim in identified(detector.process_batch(faulty))
