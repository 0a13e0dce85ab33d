"""Batch, per-window and cache-disabled detection paths must agree exactly.

The batched ``check_many`` matrix pass and the LRU memo are pure
optimisations: for any segment — clean or fault-injected — the
:class:`SegmentReport` (detections, identifications, window count, cache
counters) must be identical to the per-window streaming path, which
checks each window with the memoised scalar ``check``.  Both arms run
through the same detect-then-identify loop.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    DiceBackend,
    DiceConfig,
    DiceDetector,
    SegmentReport,
    StageTimings,
)
from repro.faults import FaultInjector, FaultType

HOUR = 3600.0


@pytest.fixture(scope="module")
def house(small_house):
    return small_house


def _fit(house, **config_kwargs):
    config = DiceConfig(**config_kwargs)
    training = house.trace.slice(0.0, 72.0 * HOUR)
    return DiceDetector(house.trace.registry, config).fit(training)


@pytest.fixture(scope="module")
def detector(house):
    return _fit(house)


@pytest.fixture(scope="module")
def uncached_detector(house):
    return _fit(house, correlation_cache_size=0)


def _segments(house):
    """A clean segment plus one per fault type, all seeded."""
    clean = house.trace.slice(80.0 * HOUR, 86.0 * HOUR)
    segments = [("clean", clean)]
    for i, fault_type in enumerate(
        (FaultType.FAIL_STOP, FaultType.STUCK_AT, FaultType.OUTLIER)
    ):
        injector = FaultInjector(np.random.default_rng(100 + i))
        faulty, fault = injector.inject(clean, fault_type=fault_type)
        segments.append((fault.fault_type.value, faulty))
    return segments


def _streamed(detector, segment):
    """The per-window arm: the segment's windows one at a time through
    ``observe_window`` (the memoised scalar check), as a report."""
    backend = DiceBackend(detector)
    windowed = detector.model.encoder.encode(segment)
    hits, misses = backend.cache_counters()
    alerts = backend.stream_segment(windowed)
    hits_after, misses_after = backend.cache_counters()
    timings = StageTimings(
        windows=len(windowed),
        correlation_cache_hits=hits_after - hits,
        correlation_cache_misses=misses_after - misses,
    )
    return SegmentReport(
        len(windowed), windowed.window_seconds, windowed.start, alerts, timings
    )


def _assert_reports_equal(a, b):
    assert a.detections == b.detections
    assert a.identifications == b.identifications
    assert a.timings.windows == b.timings.windows


class TestSegmentParity:
    def test_batch_matches_scalar(self, detector, house):
        for label, segment in _segments(house):
            detector._correlation_checker.clear_cache()
            scalar = _streamed(detector, segment)
            detector._correlation_checker.clear_cache()
            batch = detector.process(segment)
            _assert_reports_equal(scalar, batch)
            # The memo is transparent to the counters too: both paths see
            # the same hit/miss stream for the same cold start.
            assert scalar.timings.correlation_cache_hits == (
                batch.timings.correlation_cache_hits
            ), label
            assert scalar.timings.correlation_cache_misses == (
                batch.timings.correlation_cache_misses
            ), label

    def test_cache_disabled_matches_cached(self, detector, uncached_detector, house):
        for _label, segment in _segments(house):
            detector._correlation_checker.clear_cache()
            cached = detector.process(segment)
            uncached = uncached_detector.process(segment)
            _assert_reports_equal(cached, uncached)

    def test_warm_cache_matches_cold(self, detector, house):
        _, segment = _segments(house)[1]
        detector._correlation_checker.clear_cache()
        cold = detector.process(segment)
        warm = detector.process(segment)
        _assert_reports_equal(cold, warm)
        assert warm.timings.correlation_cache_misses == 0
        assert warm.timings.correlation_cache_hits == warm.timings.windows

    def test_detection_outcome_fields_identical(self, detector, house):
        """Field-by-field, not just __eq__: guards against timing-bearing
        fields sneaking into the equality contract."""
        _, segment = _segments(house)[2]
        detector._correlation_checker.clear_cache()
        scalar = _streamed(detector, segment)
        detector._correlation_checker.clear_cache()
        batch = detector.process(segment)
        for a, b in zip(scalar.detections, batch.detections):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
