"""A protocol run depends only on its inputs.

Two runs over the same trace and seed, each with its own runner as a
separate worker would have, must agree outcome for outcome; only the
wall-clock timings may differ.
"""

import pytest

from repro.eval import EvaluationRunner


def _run(small_house):
    runner = EvaluationRunner(
        precompute_hours=72.0, segment_hours=6.0, pairs=6, seed=3
    )
    return runner.evaluate(small_house.name, small_house.trace)


@pytest.fixture(scope="module")
def first(small_house):
    return _run(small_house)


@pytest.fixture(scope="module")
def second(small_house):
    return _run(small_house)


class TestWorkerParity:
    def test_aggregate_fingerprints_identical(self, first, second):
        assert first.aggregate_fingerprint() == second.aggregate_fingerprint()

    def test_outcomes_in_identical_order(self, first, second):
        assert len(first.outcomes) == len(second.outcomes) == 6
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.fault == b.fault
            assert a.detected == b.detected
            assert a.identified == b.identified
            assert a.detection_minutes == b.detection_minutes

    def test_window_counts_identical(self, first, second):
        assert first.timings.windows == second.timings.windows

    def test_fingerprint_ignores_timings(self, first, second):
        # Wall clock differs between the runs, the fingerprint must not.
        assert first.timings != second.timings
        assert first.aggregate_fingerprint() == second.aggregate_fingerprint()
