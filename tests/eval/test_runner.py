"""Tests for the Ch. V protocol runner (small-scale)."""

import weakref

import pytest

from repro.core import CORRELATION_CHECK, TRANSITION_CHECK
from repro.eval import EvaluationRunner
from repro.faults import FaultType, segments
from repro.model import Trace
from tests.conftest import HOUR, make_cyclic_trace


@pytest.fixture(scope="module")
def result(small_house):
    runner = EvaluationRunner(
        precompute_hours=72.0, segment_hours=6.0, pairs=12, seed=3
    )
    return runner.evaluate(small_house.name, small_house.trace)


class TestDatasetResult:
    def test_outcome_count(self, result):
        assert len(result.outcomes) == 12

    def test_detection_counts_partition(self, result):
        counts = result.detection_counts()
        assert counts.true_positives + counts.false_negatives == 12
        assert counts.false_positives + counts.true_negatives == 12

    def test_reasonable_recall(self, result):
        assert result.detection_counts().recall >= 0.5

    def test_identification_counts_consistent(self, result):
        counts = result.identification_counts()
        assert counts.actual == 12
        assert counts.correct <= counts.named

    def test_detection_time_positive(self, result):
        stats = result.detection_time()
        assert all(minutes >= 0 for minutes in stats.samples)

    def test_identification_no_earlier_than_detection(self, result):
        for outcome in result.outcomes:
            if (
                outcome.detection_minutes is not None
                and outcome.identification_minutes is not None
            ):
                assert outcome.identification_minutes >= outcome.detection_minutes - 1e-9

    def test_check_attribution_labels(self, result):
        for outcome in result.outcomes:
            if outcome.detected:
                assert outcome.detecting_check in (
                    CORRELATION_CHECK,
                    TRANSITION_CHECK,
                )

    def test_ratio_rows_sum_to_one(self, result):
        for checks in result.detection_ratio_by_fault_type().values():
            assert sum(checks.values()) == pytest.approx(1.0)

    def test_computation_stages(self, result):
        ms = result.computation_ms_per_window()
        assert set(ms) == {
            "encoding",
            "correlation_check",
            "transition_check",
            "identification",
        }
        assert all(v >= 0 for v in ms.values())

    def test_metadata(self, result, small_house):
        assert result.num_sensors == len(small_house.trace.registry.sensors())
        assert result.correlation_degree > 0
        assert result.num_groups > 0


class TestFingerprint:
    def test_fingerprint_is_sha256_hex(self, result):
        digest = result.aggregate_fingerprint()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex


class TestRunnerOptions:
    def test_fault_type_restriction(self, small_house):
        runner = EvaluationRunner(precompute_hours=72.0, pairs=6, seed=1)
        result = runner.evaluate(
            small_house.name,
            small_house.trace,
            fault_types=[FaultType.FAIL_STOP],
        )
        assert all(
            outcome.fault.fault_type is FaultType.FAIL_STOP
            for outcome in result.outcomes
        )

    def test_device_pool_restriction(self, small_testbed):
        runner = EvaluationRunner(precompute_hours=72.0, pairs=6, seed=1)
        actuators = small_testbed.trace.registry.actuators()
        result = runner.evaluate(
            small_testbed.name, small_testbed.trace, devices=actuators
        )
        actuator_ids = {a.device_id for a in actuators}
        assert all(o.fault.device_id in actuator_ids for o in result.outcomes)


class TestStreamedPairs:
    def test_one_worker_holds_at_most_two_pairs(self, small_house, monkeypatch):
        # Each pair is evaluated as it is drawn: while the next one is
        # built, only the one just evaluated may still be alive.
        alive = weakref.WeakSet()
        held = []

        class Tracked(segments.SegmentPair):
            def __init__(self, *args):
                super().__init__(*args)
                alive.add(self)
                held.append(len(alive))

        monkeypatch.setattr(segments, "SegmentPair", Tracked)
        runner = EvaluationRunner(precompute_hours=72.0, pairs=6, seed=3)
        result = runner.evaluate(small_house.name, small_house.trace)
        assert len(held) == len(result.outcomes) == 6
        assert max(held) <= 2, held

    def test_quiet_evaluation_span_still_raises(self, registry):
        # Events only in the training part: no segment can take a fault.
        busy = make_cyclic_trace(registry, hours=4.0)
        trace = Trace(
            registry, busy.timestamps, busy.device_indices, busy.values,
            start=0.0, end=8.0 * HOUR,
        )
        runner = EvaluationRunner(precompute_hours=4.0, segment_hours=1.0, pairs=3)
        with pytest.raises(RuntimeError, match="too quiet"):
            runner.evaluate("quiet", trace)
